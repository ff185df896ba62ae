"""A planted detection result set whose NMS and KITTI-eval outcome is known.

Every frame holds 10 cars with KITTI label and calibration files; each
car's bounding-box height, occlusion and truncation put it in the easy,
moderate or hard stratum (or in none). The detections file of a frame has
a few hundred candidates, all above the score threshold:

* per car, a cluster: one head (the car's best candidate) and jittered
  members that overlap the head and score below it, so NMS keeps the head
  and suppresses the members;
* a few "missed" cars, whose head sits 1.2 m off the car along its length:
  it still suppresses its members but matches no ground truth at IoU 0.7;
* separated false positives, far from every car and from each other.

Every matched head outranks every false positive (missed heads included),
so the precision stays 1
until the recall reaches (matched cars) / (cars) in each stratum, and AP
follows from those two counts alone. The geometry here is independent of
the program: boxes are converted to the camera frame with a hand-written
transform, and separation is by center distance, which implies zero overlap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CAR_SIZE = (1.6, 3.9, 1.56)                 # w, l, h
MISS_SHIFT = 1.2                            # head offset along the heading (m)
CARS_PER_FRAME = 10
MEMBERS_PER_CAR = 14
FALSE_POSITIVES = 45
FOOTPRINT = 0.5 * np.hypot(1.05 * CAR_SIZE[0], 1.05 * CAR_SIZE[1]) + MISS_SHIFT + 0.6
GROUND_Z = -1.73
# label metadata per stratum: (bbox height px, occlusion, truncation)
STRATA = {
    "easy": (60.0, 0, 0.05),          # in easy, moderate and hard
    "moderate": (32.0, 1, 0.20),      # in moderate and hard
    "hard": (28.0, 2, 0.40),          # in hard only
    "none": (18.0, 3, 0.80),          # in no stratum
}
STRATUM_MEMBERS = {"easy": ("easy",), "moderate": ("easy", "moderate"),
                   "hard": ("easy", "moderate", "hard")}

# camera = R0_rect @ Tr_velo_to_cam @ lidar; both rotations exactly orthonormal
_TILT = 0.01
R0_RECT = np.array([[np.cos(_TILT), 0.0, np.sin(_TILT)],
                    [0.0, 1.0, 0.0],
                    [-np.sin(_TILT), 0.0, np.cos(_TILT)]])
TR_VELO_TO_CAM = np.array([[0.0, -1.0, 0.0, -0.08],
                           [0.0, 0.0, -1.0, -0.27],
                           [1.0, 0.0, 0.0, -0.01]])
P2 = np.array([[721.5, 0.0, 609.6, 44.9],
               [0.0, 721.5, 172.9, 0.2],
               [0.0, 0.0, 1.0, 0.003]])


@dataclass
class PlantedFrame:
    stem: str
    cars: np.ndarray          # (n, 7) LiDAR boxes
    strata: list              # per car: easy / moderate / hard / none
    missed: np.ndarray        # (n,) bool
    detections: np.ndarray    # (m, 8) box + score, in file order
    expected_kept: np.ndarray  # (k, 8) heads and false positives, score-descending


def _wrap(theta):
    return (theta + np.pi) % (2.0 * np.pi) - np.pi


def _separated(xy, radius, placed):
    return all(np.hypot(xy[0] - p[0], xy[1] - p[1]) > radius + p[2] for p in placed)


def _frame(rng, index: int) -> PlantedFrame:
    """One frame with CARS_PER_FRAME cars, MEMBERS_PER_CAR members each and
    FALSE_POSITIVES separated false positives.

    Scores are ranked by kind: matched heads, then missed heads, then members
    and false positives. NMS then keeps every head before it meets any member,
    and a member stops at its own head, so the number of IoU calls is the
    same for every seed and every frame.
    """
    placed = []          # (x, y, keep-out radius)
    n_cars = CARS_PER_FRAME
    pattern = ["easy"] * 4 + ["moderate"] * 3 + ["hard"] * 2 + ["none"]
    strata = [pattern[i] for i in rng.permutation(np.arange(n_cars) % len(pattern))]
    cars = []
    while len(cars) < n_cars:
        xy = (rng.uniform(6.0, 64.0), rng.uniform(-34.0, 34.0))
        if not _separated(xy, FOOTPRINT, placed):
            continue
        placed.append((*xy, FOOTPRINT))
        w, l, h = (s * rng.uniform(0.95, 1.05) for s in CAR_SIZE)
        cars.append([xy[0], xy[1], GROUND_Z + h / 2.0, w, l, h, rng.uniform(-np.pi, np.pi)])
    cars = np.array(cars)
    # one car in seven is missed; four easy cars leave every stratum with a hit
    missed = np.zeros(n_cars, dtype=bool)
    missed[rng.choice(n_cars, size=n_cars // 7, replace=False)] = True

    # scores, all distinct on a 1e-6 grid: matched heads in [0.9, 0.999), missed
    # heads in [0.895, 0.9), members and false positives in [0.3005, 0.895)
    heads, members, false_pos = [], [], []
    for car, miss in zip(cars, missed):
        head = car.copy()
        if miss:
            head[0] += MISS_SHIFT * np.cos(car[6])
            head[1] += MISS_SHIFT * np.sin(car[6])
        heads.append(head)
        for _ in range(MEMBERS_PER_CAR):
            m = car.copy()
            m[:2] += np.clip(rng.normal(0.0, 0.2, size=2), -0.4, 0.4)
            m[3:6] *= rng.uniform(0.92, 1.08, size=3)
            m[6] = _wrap(m[6] + rng.uniform(-0.12, 0.12))
            members.append(m)
    fp_radius = 0.5 * np.hypot(CAR_SIZE[0] * 1.1, CAR_SIZE[1] * 1.1) + 0.3
    for _ in range(100_000):
        if len(false_pos) == FALSE_POSITIVES:
            break
        xy = (rng.uniform(2.0, 68.0), rng.uniform(-38.0, 38.0))
        if not _separated(xy, fp_radius, placed):
            continue
        placed.append((*xy, fp_radius))
        w, l, h = (s * rng.uniform(0.9, 1.1) for s in CAR_SIZE)
        false_pos.append([xy[0], xy[1], GROUND_Z + h / 2.0, w, l, h, rng.uniform(-np.pi, np.pi)])
    if len(false_pos) < FALSE_POSITIVES:
        raise RuntimeError(f"frame {index}: no room for {FALSE_POSITIVES} false positives")

    n_missed = int(missed.sum())
    head_scores = np.empty(n_cars)
    head_scores[~missed] = rng.choice(np.arange(900_000, 999_000), size=n_cars - n_missed,
                                      replace=False) / 1e6
    head_scores[missed] = rng.choice(np.arange(895_000, 900_000), size=n_missed,
                                     replace=False) / 1e6
    low = rng.choice(np.arange(300_500, 895_000), size=len(false_pos) + len(members),
                     replace=False) / 1e6
    rows = [np.r_[h, s] for h, s in zip(heads, head_scores)]
    rows += [np.r_[fp, s] for fp, s in zip(false_pos, low)]
    kept = list(rows)
    rows += [np.r_[m, s] for m, s in zip(members, low[len(false_pos):])]

    detections = np.array(rows)[rng.permutation(len(rows))]
    kept = np.array(kept)
    kept = kept[np.argsort(-kept[:, 7], kind="stable")]
    return PlantedFrame(f"{index:06d}", cars, strata, missed, detections, kept)


def make_planted(seed: int, n_frames: int) -> list[PlantedFrame]:
    rng = np.random.default_rng([seed, 0x9E7])
    return [_frame(rng, i) for i in range(n_frames)]


def expected_ap(frames, mode_samples=11) -> dict:
    """AP in percent per stratum implied by the construction (3D and BEV alike)."""
    samples = np.linspace(0.0, 1.0, mode_samples)
    out = {}
    for name, members in STRATUM_MEMBERS.items():
        n = sum(sum(s in members for s in f.strata) for f in frames)
        m = sum(sum(s in members and not miss for s, miss in zip(f.strata, f.missed))
                for f in frames)
        out[name] = float(np.mean(samples <= m / n + 1e-12) * 100.0)
    return out


# -- KITTI files ---------------------------------------------------------------------


def format_row(row) -> str:
    """One line of the simple detections format, as the CLI writes it."""
    return " ".join(f"{v:.9g}" for v in row) + "\n"


def lidar_to_label(box, stratum: str) -> str:
    x, y, z, w, l, h, theta = box
    bottom = np.array([x, y, z - h / 2.0, 1.0])
    loc = R0_RECT @ (TR_VELO_TO_CAM @ bottom)
    rotation_y = _wrap(-theta - np.pi / 2.0)
    alpha = _wrap(rotation_y - np.arctan2(loc[0], loc[2]))
    height, occlusion, truncation = STRATA[stratum]
    top = 180.0
    fields = ["Car", f"{truncation:.2f}", str(occlusion), f"{alpha:.4f}",
              "500.00", f"{top:.2f}", "560.00", f"{top + height:.2f}",
              f"{h:.4f}", f"{w:.4f}", f"{l:.4f}",
              f"{loc[0]:.4f}", f"{loc[1]:.4f}", f"{loc[2]:.4f}", f"{rotation_y:.4f}"]
    return " ".join(fields) + "\n"


def calib_text() -> str:
    def line(key, m):
        return key + ": " + " ".join(f"{v:.12e}" for v in m.reshape(-1)) + "\n"
    return line("P2", P2) + line("R0_rect", R0_RECT) + line("Tr_velo_to_cam", TR_VELO_TO_CAM)


def write_planted(frames, root) -> dict:
    """Write detections, labels and calibration files; return the directories."""
    dirs = {k: os.path.join(root, k) for k in ("detections", "kept", "label", "calib")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    calib = calib_text()
    for f in frames:
        with open(os.path.join(dirs["detections"], f.stem + ".txt"), "w") as fh:
            fh.writelines(format_row(r) for r in f.detections)
        with open(os.path.join(dirs["label"], f.stem + ".txt"), "w") as fh:
            fh.writelines(lidar_to_label(c, s) for c, s in zip(f.cars, f.strata))
        with open(os.path.join(dirs["calib"], f.stem + ".txt"), "w") as fh:
            fh.write(calib)
    return dirs
