"""Command-line pipeline: graph, components, calibrate, perturb,
eval-privacy, eval-utility, neighbours.

Every command writes its artifact files plus a manifest recording the
resolved parameters, input file hashes, the seed, and the tool version, so
any run can be replayed exactly with ``--config <manifest>``. The manifest is
the operator's secret, written with mode 0600: its seed regenerates a
release's noise, which no other artifact records. Outputs carry no
timestamps: a command is a pure function of its files, flags and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import shutil
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import PrivacyParams, calibrate_components, classic_sigma_formula
from .components import build_partition, partition_report
from .domains import DOMAINS, require
from .embeddings import EmbeddingSet, load_embeddings, save_embeddings
from .graph import (
    DEFAULT_M,
    DEFAULT_TAU,
    NeighbourGraph,
    NeighbourIndex,
    _require_two_words,
    _self_k,
    build_graph,
    graph_report,
)
from .mechanisms import (
    DEFAULT_ALPHA1,
    DEFAULT_ALPHA2,
    DEFAULT_ETA0,
    DEFAULT_LAMBDA,
    DEFAULT_M_DENSITY,
    MECHANISM_KINDS,
    Perturber,
    check_epsilon,
)
from .privacy import DEFAULT_EVAL_M, privacy_report
from .utility import (
    UtilityDatasets,
    _text_lines,
    load_odd_man_dataset,
    load_sentence_pairs,
    load_similarity_dataset,
    suite_rows_to_csv,
    utility_suite,
)


def _csv(text: str) -> str:
    """The type of a comma-separated list flag; a manifest may hold a list."""
    return text


# One row per manifest parameter: key -> (flag, type, default, help). The
# type is an argparse type, a tuple of choices, or `bool` for a switch. Every
# flag parses to None when absent, so `_resolve_params` can tell a flag given
# on the command line from a default; `build_parser` quotes each non-None
# default in its flag's help.
_PARAMS = {
    "embeddings": ("--embeddings", str, None, "embedding text file"),
    "limit": ("--limit", int, None, "keep only the first N words"),
    "vocab_file": ("--vocab-file", str, None, "token allowlist file"),
    "m": ("--m", int, DEFAULT_M, "neighbourhood size"),
    "tau": ("--tau", float, DEFAULT_TAU, "Jaccard threshold"),
    "epsilon": ("--epsilon", float, None, "privacy level epsilon"),
    "delta": ("--delta", float, None, "1/n of the vocabulary when absent"),
    "lambda_": ("--lambda", float, DEFAULT_LAMBDA, "covariance blend"),
    "eta0": ("--eta0", float, DEFAULT_ETA0, "density split threshold"),
    "alpha1": ("--alpha1", float, DEFAULT_ALPHA1, "dense-category scale constant"),
    "alpha2": ("--alpha2", float, DEFAULT_ALPHA2, "sparse-category scale constant"),
    "m_density": ("--m-density", int, DEFAULT_M_DENSITY, "density neighbourhood size"),
    "allow_unproven_epsilon": ("--allow-unproven-epsilon", bool, False,
                               "run gaussian and jaccard for epsilon outside (0, 1)"),
    "mechanism": ("--mechanism", MECHANISM_KINDS, None, "mechanism to apply"),
    "seed": ("--seed", int, None,
             "drawn and recorded when absent; base seed for eval-utility's --repeats"),
    "output": ("--output", str, "perturbed.txt", "perturbed embedding file name"),
    "report": ("--report", str, None, "report file name"),
    "precision": ("--precision", int, 6, "decimal places written"),
    "perturbed": ("--perturbed", str, None, "perturbed embedding text file"),
    "m_eval": ("--m-eval", int, DEFAULT_EVAL_M, "evaluation m"),
    "wordsim": ("--wordsim", str, None, "word-pair similarity TSV"),
    "sts": ("--sts", str, None, "sentence-pair TSV"),
    "oddman": ("--oddman", str, None, "odd-man-out TSV"),
    "mechanisms": ("--mechanisms", _csv, None, "comma-separated mechanism list"),
    "epsilons": ("--epsilons", _csv, None, "comma-separated epsilon grid"),
    "seeds": ("--seeds", _csv, None, "comma-separated seed list"),
    "repeats": ("--repeats", int, 5, "seeds drawn when --seeds absent"),
    "words": ("--words", _csv, None, "comma-separated query words"),
    "k": ("-k", int, 3, "neighbours listed per word"),
}
_DEFAULTS = {key: default for key, (_, _, default, _) in _PARAMS.items()}

# type -> how a type error names it, and the Python types its values may have
_KINDS = {int: ("an int", int), float: ("a number", (int, float)),
          str: ("a string", str), bool: ("true or false", bool),
          _csv: ("a string or a list", (str, list))}


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj: dict, private: bool = False) -> None:
    """Write `obj` as sorted, indented JSON; a private file (a manifest, whose
    seed regenerates a release's noise) gets mode 0600, even if it existed."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if not private:
        path.write_text(text, encoding="utf-8")
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w", encoding="utf-8") as fh:
        os.fchmod(fd, 0o600)
        fh.write(text)


def _resolve_params(args: argparse.Namespace) -> dict:
    """Merge defaults, an optional --config manifest, and explicit flags.

    Flags given on the command line (non-None after parsing) win over the
    manifest, which wins over the built-in defaults.
    """
    params = dict(_DEFAULTS)
    if args.config is not None:
        try:
            manifest = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"manifest {args.config}: {exc}") from None
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("parameters"), dict
        ):
            raise ValueError(
                f"manifest {args.config} is not a JSON object with a "
                f"'parameters' object"
            )
        if manifest.get("command") != args.command:
            raise ValueError(
                f"manifest {args.config} was written by "
                f"{manifest.get('command')!r}, not {args.command!r}"
            )
        for key in manifest["parameters"]:
            if key not in _PARAMS:
                raise ValueError(
                    f"manifest {args.config} has an unknown parameter {key!r}"
                )
        params.update(manifest["parameters"])
    for key in _PARAMS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _check_params(params: dict, keys: tuple, required: tuple) -> None:
    """Name the first of `keys` that is required and missing, of the wrong
    type (a bool only where the type is bool), or outside its domain. A key
    with a domain is named as the domain table names it, any other by its
    flag; epsilon, whose domain depends on the mechanism, each command
    checks with `check_epsilon`."""
    for key in keys:
        flag, kind, _, _ = _PARAMS[key]
        name, value = DOMAINS.get(key, (flag,))[0], params[key]
        if isinstance(kind, tuple):
            what, fits = f"one of {kind}", value in kind
        else:
            what, cls = _KINDS[kind]
            fits = isinstance(value, cls) and isinstance(value, bool) == (kind is bool)
        if value is None:
            if key in required:
                choices = f" ({what})" if isinstance(kind, tuple) else ""
                raise ValueError(f"{flag} is required{choices}")
        elif not fits:
            raise ValueError(f"{name} must be {what}, got {value!r}")
        elif key in DOMAINS:
            require(key, value)


def _load_set(params: dict, key: str = "embeddings") -> EmbeddingSet:
    path = params[key]
    word_filter = None
    if key == "embeddings" and params.get("vocab_file"):
        word_filter = {w.strip() for w in _text_lines(params["vocab_file"]) if w.strip()}
    limit = params["limit"] if key == "embeddings" else None
    return load_embeddings(path, limit=limit, word_filter=word_filter)


def _resolve_delta(params: dict, n: int) -> float:
    # default delta is 1/n of the loaded vocabulary; recorded for replay
    if params["delta"] is None:
        params["delta"] = 1.0 / n
    return params["delta"]


def _resolve_seed(params: dict) -> int:
    if params["seed"] is None:
        params["seed"] = secrets.randbits(63)
    return int(params["seed"])


# the parameters that name an input file, which the manifest hashes
_INPUTS = ("embeddings", "perturbed", "vocab_file", "wordsim", "sts", "oddman")


def _input_hashes(params: dict) -> dict[str, str]:
    hashes = {}
    for key in _INPUTS:
        path = params.get(key)
        if path is not None:
            hashes[str(path)] = _sha256(path)
    return hashes


def _manifest_name(command: str) -> str:
    return command.replace("-", "_") + "_manifest.json"


def _require_distinct_files(params: dict, out_dir: Path, written: dict) -> None:
    """Each of `written` (what -> file name in out_dir) names its own file,
    and none of them an input: a file written over another, or over an input
    whose hash the manifest then records, leaves a run that cannot replay."""
    seen = {}
    for key in _INPUTS:
        if params.get(key) is not None:
            seen[Path(params[key]).resolve()] = _PARAMS[key][0]
    for what, name in written.items():
        path = out_dir / name
        other = seen.setdefault(path.resolve(), what)
        if other != what:
            raise ValueError(f"{what} and {other} name the same file {path}")


def _perturber(params: dict, emb: EmbeddingSet) -> Perturber:
    _resolve_delta(params, emb.n)
    # every Perturber field named like a parameter (delta, m, tau and the
    # baselines' knobs) takes that parameter's value
    knobs = {f.name: params[f.name] for f in fields(Perturber) if f.name in _PARAMS}
    return Perturber(emb, strict=not params["allow_unproven_epsilon"], **knobs)


def _build_graph(params: dict, emb: EmbeddingSet) -> NeighbourGraph:
    """The (m, tau) graph, with a stderr warning when tau provably leaves it
    without edges: every word has k = min(m, n - 1) neighbours, and an edge
    joins i to some j in i's set, which j's own set never holds, so the two
    sets share at most k - 1 words and their Jaccard similarity is at most
    (k - 1) / (k + 1)."""
    graph = build_graph(emb, params["m"], params["tau"])
    k = _self_k(graph.m, graph.n)
    bound = (k - 1) / (k + 1)
    if graph.tau > bound:
        print(
            f"warning: tau={graph.tau} exceeds (k-1)/(k+1)={bound:.6g} for "
            f"k=min(m, n-1)={k}; the graph has no edges",
            file=sys.stderr,
        )
    return graph


def cmd_graph(params: dict, out_dir: Path) -> list[str]:
    emb = _load_set(params)
    graph = _build_graph(params, emb)
    _write_json(out_dir / "graph.json", graph_report(graph, emb))
    print(f"graph: n={graph.n} edges={len(graph.pairs)} m={graph.m} tau={graph.tau}")
    return ["graph.json"]


def cmd_components(params: dict, out_dir: Path) -> list[str]:
    emb = _load_set(params)
    graph = _build_graph(params, emb)
    partition = build_partition(graph, emb)
    report = partition_report(partition, graph, emb)
    _write_json(out_dir / "components.json", report)
    print(
        f"components: k={partition.k} "
        f"global_sensitivity={partition.global_sensitivity:.6g} "
        f"max_hop_diameter={report['max_hop_diameter']}"
    )
    return ["components.json"]


def cmd_calibrate(params: dict, out_dir: Path) -> list[str]:
    epsilon = params["epsilon"]
    check_epsilon("nadp", epsilon, strict=True)
    emb = _load_set(params)
    delta = _resolve_delta(params, emb.n)
    graph = _build_graph(params, emb)
    partition = build_partition(graph, emb)
    privacy = PrivacyParams(epsilon=epsilon, delta=delta)
    calib = calibrate_components(partition.local_sensitivities, privacy)
    classic = None  # reported only where the closed form is proven
    if epsilon > 0.0 and check_epsilon("gaussian", epsilon, strict=False):
        classic = classic_sigma_formula(epsilon, delta, partition.global_sensitivity)
    report = {
        "epsilon": epsilon,
        "delta": delta,
        "u_star": calib.u_star,
        "global_sensitivity": partition.global_sensitivity,
        "max_sigma": calib.u_star * partition.global_sensitivity,
        "classic_sigma": classic,
        "per_component": [
            {
                "id": cid,
                "size": size,
                "local_sensitivity": float(partition.local_sensitivities[cid]),
                "sigma": float(calib.sigma_per_component[cid]),
            }
            for cid, size in enumerate(partition.sizes())
        ],
    }
    _write_json(out_dir / "calibration.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return ["calibration.json"]


def cmd_perturb(params: dict, out_dir: Path) -> list[str]:
    check_epsilon(params["mechanism"], params["epsilon"],
                  strict=not params["allow_unproven_epsilon"])
    out_name = params["output"]
    report_name = params["report"] or "perturb_report.json"
    _require_distinct_files(params, out_dir, {
        "the manifest": _manifest_name("perturb"),
        "--output": out_name,
        "--report": report_name,
    })
    emb = _load_set(params)
    seed = _resolve_seed(params)
    perturbed, report = _perturber(params, emb).perturb(
        params["mechanism"], params["epsilon"], seed
    )
    save_embeddings(perturbed, out_dir / out_name, precision=params["precision"])
    _write_json(out_dir / report_name, report.to_dict())
    print(
        f"perturb: mechanism={report.kind} epsilon={report.epsilon} "
        f"zero_noise_words={report.zero_noise_words}"
    )
    if report.zero_noise_words == emb.n:
        print(
            "warning: every word has zero noise; the released file equals the input",
            file=sys.stderr,
        )
    return [out_name, report_name]


def cmd_eval_privacy(params: dict, out_dir: Path) -> list[str]:
    original = _load_set(params)
    perturbed = _load_set(params, key="perturbed")
    report = privacy_report(original, perturbed, m=params["m_eval"])
    _write_json(out_dir / "privacy.json", report.to_dict(words=original.words))
    hist_lines = ["bin_low,bin_high,count"]
    edges = np.linspace(0.0, 1.0, len(report.histogram) + 1)
    for i, count in enumerate(report.histogram):
        hist_lines.append(f"{edges[i]:.2f},{edges[i + 1]:.2f},{int(count)}")
    (out_dir / "privacy_histogram.csv").write_text(
        "\n".join(hist_lines) + "\n", encoding="utf-8"
    )
    print(
        f"privacy: mean={report.mean:.4f} skewness={report.skewness:.4f}"
        f"{' (degenerate)' if report.degenerate else ''}"
    )
    return ["privacy.json", "privacy_histogram.csv"]


def _parse_list(params: dict, key: str, cast) -> list | None:
    """A comma-separated flag (or a manifest's list) as a list; a bad entry
    is an error naming the flag."""
    value = params[key]
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        value = [v for v in str(value).split(",") if v != ""]
    try:
        return [cast(v) for v in value]
    except ValueError as exc:
        raise ValueError(f"{_PARAMS[key][0]}: {exc}") from None


def cmd_eval_utility(params: dict, out_dir: Path) -> list[str]:
    # every argument check comes before the loads and the baseline scores
    if not (params["wordsim"] or params["sts"] or params["oddman"]):
        raise ValueError("at least one of --wordsim/--sts/--oddman is required")
    mechanisms = _parse_list(params, "mechanisms", str) or ["nadp"]
    epsilons = _parse_list(params, "epsilons", float)
    if not epsilons:
        raise ValueError("--epsilons is required (comma-separated list)")
    for kind in mechanisms:
        for eps in epsilons:
            check_epsilon(kind, eps, strict=not params["allow_unproven_epsilon"])
    seeds = _parse_list(params, "seeds", int)
    if seeds == []:
        raise ValueError("--seeds must list at least one seed")
    if seeds is None:
        base = _resolve_seed(params)
        seeds = [base + i for i in range(params["repeats"])]
    params["seeds"] = seeds
    emb = _load_set(params)
    datasets = UtilityDatasets(
        word_similarity=(
            load_similarity_dataset(params["wordsim"]) if params["wordsim"] else None
        ),
        sts=load_sentence_pairs(params["sts"]) if params["sts"] else None,
        odd_man=load_odd_man_dataset(params["oddman"]) if params["oddman"] else None,
    )
    perturber = _perturber(params, emb)
    rows = utility_suite(
        emb,
        datasets,
        lambda kind, eps, seed: perturber.perturb(kind, eps, seed)[0],
        mechanisms,
        epsilons,
        seeds,
    )
    (out_dir / "utility.csv").write_text(suite_rows_to_csv(rows), encoding="utf-8")
    _write_json(out_dir / "utility.json", {"rows": [asdict(r) for r in rows]})
    for r in rows:
        eps = "baseline" if r.epsilon is None else f"eps={r.epsilon:g}"
        err = "" if r.stderr is None else f" +- {r.stderr:.4f}"
        print(f"utility: {r.mechanism:12s} {eps:14s} {r.task:16s} {r.mean:.4f}{err}")
    return ["utility.csv", "utility.json"]


def cmd_neighbours(params: dict, out_dir: Path) -> list[str]:
    words = _parse_list(params, "words", str)
    if not words:
        raise ValueError("--words is required (comma-separated list)")
    original = _load_set(params)
    perturbed = _load_set(params, key="perturbed")
    if original.words != perturbed.words:
        raise ValueError("original and perturbed vocabularies do not match")
    _require_two_words(original.n)
    k = params["k"]
    found = []
    for word in words:
        if word not in original:
            print(f"warning: {word!r} not in vocabulary, skipped", file=sys.stderr)
            continue
        found.append(word)
    rows = []
    if found:
        idx = np.array([original.index_of(w) for w in found], dtype=np.int64)
        # one index serves both rankings: the words are clustered once
        index = NeighbourIndex(original)
        clean_idx = index.ranks(original.vectors[idx], min(k, original.n - 1), idx)
        # the perturbed query ranks the full vocabulary, the word included:
        # retrieving the word's clean vector is the leak being checked for,
        # whether through the word itself or through an exact duplicate that
        # the (distance, index) order ranks ahead of it
        pert_idx = index.ranks(perturbed.vectors[idx], min(k, original.n))
        same_vector = original.vectors[pert_idx] == original.vectors[idx, None]
        leaks = same_vector.all(axis=2).any(axis=1)
        for word, clean_row, pert_row, leak in zip(found, clean_idx, pert_idx, leaks):
            rows.append(
                {
                    "word": word,
                    "clean_neighbours": [original.words[j] for j in clean_row],
                    "perturbed_neighbours": [original.words[j] for j in pert_row],
                    "leak": bool(leak),
                }
            )
    _write_json(out_dir / "neighbours.json", {"k": k, "rows": rows})
    width = max((len(r["word"]) for r in rows), default=4)
    print(f"{'word':{width}s} | clean | perturbed | leak")
    for r in rows:
        print(
            f"{r['word']:{width}s} | {', '.join(r['clean_neighbours'])} | "
            f"{', '.join(r['perturbed_neighbours'])} | "
            f"{'LEAK' if r['leak'] else 'ok'}"
        )
    return ["neighbours.json"]


_COMMON = ("embeddings", "limit", "vocab_file")
_GRAPH = (*_COMMON, "m", "tau")
_MECHANISM = (*_GRAPH, "delta", "lambda_", "eta0", "alpha1", "alpha2", "m_density",
              "allow_unproven_epsilon")
_EMB = ("embeddings",)

# command -> (function, help, the parameter keys it takes as flags, the keys
# of those it requires)
_COMMANDS = {
    "graph": (cmd_graph, "build the nearest-neighbour graph", _GRAPH, _EMB),
    "components": (cmd_components, "factorise the graph into neighbourhoods", _GRAPH,
                   _EMB),
    "calibrate": (cmd_calibrate, "solve the minimal noise multiplier",
                  (*_GRAPH, "epsilon", "delta"), (*_EMB, "epsilon")),
    "perturb": (cmd_perturb, "apply a DP mechanism to the embeddings",
                (*_MECHANISM, "mechanism", "epsilon", "seed", "output", "report",
                 "precision"), (*_EMB, "mechanism", "epsilon")),
    "eval-privacy": (cmd_eval_privacy, "neighbour-overlap privacy report",
                     (*_COMMON, "perturbed", "m_eval"), (*_EMB, "perturbed")),
    "eval-utility": (cmd_eval_utility, "utility sweep over mechanisms",
                     (*_MECHANISM, "wordsim", "sts", "oddman", "mechanisms",
                      "epsilons", "seeds", "repeats", "seed"), _EMB),
    "neighbours": (cmd_neighbours, "inspect clean vs perturbed neighbours",
                   (*_COMMON, "perturbed", "words", "k"), (*_EMB, "perturbed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nadp",
        description="Neighbourhood-aware differential privacy for word embeddings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, keys, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="manifest file to replay parameters from")
        p.add_argument("--out-dir", default=".", help="directory for artifacts")
        for key in keys:
            flag, kind, default, text = _PARAMS[key]
            if default is not None:
                text = f"{text} (default {default})"
            if kind is bool:
                how = {"action": "store_const", "const": True}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            p.add_argument(flag, dest=key, help=text, **how)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir, made = Path(args.out_dir), []
    try:
        params = _resolve_params(args)
        command, _, keys, required = _COMMANDS[args.command]
        _check_params(params, keys, required)  # before any command reads a file
        # the directories that mkdir makes, innermost first: a run that fails
        # removes the outermost again, with all it wrote there
        made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = command(params, out_dir)
        manifest = {
            "command": args.command,
            "version": __version__,
            "parameters": params,
            "inputs": _input_hashes(params),
            "outputs": outputs,
        }
        _write_json(out_dir / _manifest_name(args.command), manifest, private=True)
        return 0
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
