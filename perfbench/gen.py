"""Deterministic synthetic inputs for the nadp benchmark.

Usage: python3 perfbench/gen.py --seed N --out DIR

Writes, from the seed alone and without importing nadp (so the inputs stay
the same when the library changes):

* ``clean_10k.txt``: a 10,000 x 300 clustered vocabulary in GloVe text
  format, 6 decimals. 200 Gaussian clusters with log-uniform spreads, the
  recipe of ``tests/synth.clustered_embeddings``.
* ``clean_5k.txt``: its first 5,000 lines.
* ``perturbed_5k.txt``: the 5k vectors plus plain numpy Gaussian noise at a
  per-cluster scale (not the nadp mechanism).
* ``wordsim.tsv``, ``sts.tsv``, ``oddman.tsv``: utility datasets whose gold
  labels come from the clean geometry.
* ``manifest.json``: byte size and sha256 of every file above.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

N_FULL = 10_000
N_PRIVACY = 5_000
DIM = 300
CLUSTERS = 200
CENTRE_SCALE = 8.0
SPREAD_LOW, SPREAD_HIGH = 0.05, 0.8
# noise of the privacy workload's perturbed file, in units of cluster spread
PRIVACY_NOISE = 1.0
WORDSIM_PAIRS = 2000
STS_PAIRS = 1000
ODDMAN_INSTANCES = 400
LABEL_NOISE = 0.05

# independent substreams of the seed, one per artifact
_VOCAB, _PERTURB, _WORDSIM, _STS, _ODDMAN = range(5)


def clustered(rng: np.random.Generator, n: int):
    """Vectors, cluster assignment and per-cluster spreads."""
    centres = rng.normal(0.0, CENTRE_SCALE, (CLUSTERS, DIM))
    spreads = np.exp(rng.uniform(np.log(SPREAD_LOW), np.log(SPREAD_HIGH), CLUSTERS))
    assign = rng.integers(0, CLUSTERS, n)
    vecs = centres[assign] + rng.normal(0.0, 1.0, (n, DIM)) * spreads[assign, None]
    return vecs, assign, spreads


def format_lines(words: list[str], vecs: np.ndarray) -> list[str]:
    fmt = " ".join(["%.6f"] * vecs.shape[1])
    return [f"{w} {fmt % tuple(row)}\n" for w, row in zip(words, vecs.tolist())]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def members_by_cluster(assign: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(assign == c) for c in range(CLUSTERS)]


def wordsim_rows(rng, vecs, assign, members) -> list[str]:
    """Half same-cluster pairs, half random pairs; rating = clean cosine + noise."""
    rows = []
    while len(rows) < WORDSIM_PAIRS:
        i = int(rng.integers(vecs.shape[0]))
        if len(rows) % 2 == 0:
            mates = members[assign[i]]
            j = int(mates[rng.integers(len(mates))])
        else:
            j = int(rng.integers(vecs.shape[0]))
        if i == j:
            continue
        rating = cosine(vecs[i], vecs[j]) + rng.normal(0.0, LABEL_NOISE)
        rows.append(f"w{i:05d}\tw{j:05d}\t{rating:.6f}\n")
    return rows


def sts_rows(rng, vecs, assign, members) -> list[str]:
    """Sentences of 4-8 words from one cluster; the second sentence shares
    the first one's cluster half of the time. Rating = clean centroid cosine
    plus noise."""
    big = [c for c in range(CLUSTERS) if len(members[c]) >= 8]
    rows = []
    for p in range(STS_PAIRS):
        a = big[int(rng.integers(len(big)))]
        b = a if p % 2 == 0 else big[int(rng.integers(len(big)))]
        s1 = rng.choice(members[a], int(rng.integers(4, 9)), replace=False)
        s2 = rng.choice(members[b], int(rng.integers(4, 9)), replace=False)
        rating = cosine(vecs[s1].mean(axis=0), vecs[s2].mean(axis=0))
        rating += rng.normal(0.0, LABEL_NOISE)
        t1 = " ".join(f"w{i:05d}" for i in s1)
        t2 = " ".join(f"w{i:05d}" for i in s2)
        rows.append(f"{t1}\t{t2}\t{rating:.6f}\n")
    return rows


def oddman_rows(rng, members) -> list[str]:
    """Four words of one cluster plus one of another; the latter is gold."""
    big = [c for c in range(CLUSTERS) if len(members[c]) >= 4]
    rows = []
    for _ in range(ODDMAN_INSTANCES):
        a, b = rng.choice(big, 2, replace=False)
        four = rng.choice(members[a], 4, replace=False)
        odd = int(members[b][rng.integers(len(members[b]))])
        tokens = [f"w{i:05d}" for i in four] + [f"w{odd:05d}"]
        order = rng.permutation(5)
        rows.append(" ".join(tokens[k] for k in order) + f"\tw{odd:05d}\n")
    return rows


def generate(seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    vecs, assign, spreads = clustered(np.random.default_rng([seed, _VOCAB]), N_FULL)
    words = [f"w{i:05d}" for i in range(N_FULL)]
    members = members_by_cluster(assign)
    lines = format_lines(words, vecs)
    files = {
        "clean_10k.txt": lines,
        "clean_5k.txt": lines[:N_PRIVACY],
    }
    noise_rng = np.random.default_rng([seed, _PERTURB])
    head = vecs[:N_PRIVACY]
    scale = PRIVACY_NOISE * spreads[assign[:N_PRIVACY], None]
    files["perturbed_5k.txt"] = format_lines(
        words[:N_PRIVACY], head + noise_rng.normal(0.0, 1.0, head.shape) * scale
    )
    files["wordsim.tsv"] = wordsim_rows(
        np.random.default_rng([seed, _WORDSIM]), vecs, assign, members
    )
    files["sts.tsv"] = sts_rows(np.random.default_rng([seed, _STS]), vecs, assign, members)
    files["oddman.tsv"] = oddman_rows(np.random.default_rng([seed, _ODDMAN]), members)
    manifest = {}
    for name, rows in files.items():
        data = "".join(rows).encode("utf-8")
        (out / name).write_bytes(data)
        manifest[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    generate(args.seed, args.out)


if __name__ == "__main__":
    main()
