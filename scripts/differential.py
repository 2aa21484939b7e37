"""Differential check of the `astable` CLI on seeded random programs.

Usage:
    python scripts/differential.py PARENT_SRC CHANGE_SRC --seed S --count N
    python scripts/differential.py SRC --seed S --count N

Each SRC is a source directory that holds the `astable` package, such as
`src` of a checkout.  The seed draws a corpus of N small ground programs:
free choices, facts, rules whose bodies are literals, `not not` atoms or a
mix, disjunctive heads, constraints and `bot`.  One case in five also has a
first-order program of `forall` and `exists` sentences over a domain of one
or two elements.  Each case has its own `--sigma` extras, `--intensional*`
flag and cap (`--max-atoms` 1 to 24), and a definition module over fresh
atoms, most of them definitions.  Every case runs `solve`, `split-solve`
and `check-definition`.  Each tree runs the whole corpus in one fresh
interpreter that imports the package from its SRC, with the working
directory a scratch folder, so that file names read the same in both
trees.  The generator imports nothing from the package.

With two trees, the script prints one digest per command over the exit
codes, stdout and stderr of every case, and exits 1 at the first case
whose bytes differ, which it prints.  With one tree, it checks that
`solve` and `split-solve` print the same stdout on every case where both
exit 0, and that no run ends in a traceback; it prints the digests and
exits 1 at the first case that fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

COMMANDS = ("solve", "split-solve", "check-definition")
_POOL = ("a", "b", "c", "p(a)", "p(b)", "q(a,b)", "x_1", "y")
_SHOWN = 2000  # characters of a differing output that the report prints


def _literal(rng: random.Random, x: str) -> str:
    r = rng.random()
    return x if r < 0.5 else f"not {x}" if r < 0.85 else f"not not {x}"


def _body(rng: random.Random, atoms: list[str], least: int = 1) -> list[str]:
    """Literals of 0-3 distinct atoms, at least `least` of them."""
    return [_literal(rng, x) for x in rng.sample(atoms, rng.randint(min(least, len(atoms)), min(3, len(atoms))))]


def _rule(rng: random.Random, atoms: list[str]) -> str:
    h = rng.choice(atoms)
    r = rng.random()
    if r < 0.2:
        return f"{h} | not {h}"
    if r < 0.3:
        return h
    if r < 0.65:
        return f"{' & '.join(_body(rng, atoms))} -> {h}"
    if r < 0.75:
        head = f"{h} | {rng.choice(atoms)}"
        return head if rng.random() < 0.4 else f"{' & '.join(_body(rng, atoms))} -> {head}"
    if r < 0.97:
        return f"not ({' & '.join(_body(rng, atoms))})"
    return "bot"


_SENTENCES = (
    "forall X ({p}(X) | not {p}(X))",
    "forall X ({p}(X) -> {q}(X))",
    "forall X (not {p}(X) -> {q}(X))",
    "forall X (forall Y (e(X,Y) | not e(X,Y)))",
    "forall X (forall Y (e(X,Y) & {p}(X) -> {q}(Y)))",
    "forall X (not ({p}(X) & {q}(X)))",
    "exists X ({p}(X))",
    "{p}(a)",
)


def _first_order(rng: random.Random) -> str:
    """A first-order program over the domain {a} or {a, b}: unary p, q
    and r, and binary e."""
    sentences = [rng.choice(_SENTENCES).format(p=rng.choice("pqr"), q=rng.choice("pqr")) for _ in range(rng.randint(1, 4))]
    return f"#domain {', '.join(['a', 'b'][:rng.randint(1, 2)])}.\n" + "".join(f"{s}.\n" for s in sentences)


def _module(rng: random.Random, atoms: list[str]) -> tuple[str, list[str]]:
    """A definition module over 1-3 fresh atoms and the atoms it reads,
    with the defined atoms; about one in eight is no definition."""
    defined = [f"d{k}" for k in range(rng.randint(1, 3))]
    clauses = []
    for q in defined:
        for _ in range(rng.randint(1, 2)):
            body = _body(rng, atoms, 0) + rng.sample(defined, rng.randint(0, len(defined) - 1))
            clauses.append(f"{' & '.join(body) or 'top'} -> {q}")
    if rng.random() < 0.125:
        d = rng.choice(defined)
        clauses.append(rng.choice([f"not {d} -> {d}", f"{d} | {rng.choice(atoms)}", f"not {d} & {atoms[0]} -> {d}"]))
    rng.shuffle(clauses)
    return "".join(c + ".\n" for c in clauses), defined


def corpus(seed: int, count: int) -> list[dict]:
    """The cases the seed draws: per case the ground program, in
    `prog.lp`, which `check-definition` takes as its base; in one case of
    five a first-order program, in `prog.fo`, which `solve` and
    `split-solve` then take instead; the definition module, in `def.lp`;
    and the argument lists of the three commands."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        atoms = rng.sample(_POOL, rng.randint(1, 7))
        program = "".join(_rule(rng, atoms) + ".\n" for _ in range(rng.randint(1, 8)))
        first_order = _first_order(rng) if rng.random() < 0.2 else None
        flags = ["--max-atoms", str(rng.randint(1, 24))]
        if rng.random() < 0.3:
            flags += ["--sigma", ",".join(rng.sample(["s", "t(a)", *atoms], rng.randint(1, 2)))]
        r = rng.random()
        if r < 0.1:
            flags.append("--intensional-all")
        elif r < 0.25:
            flags.append("--intensional-none")
        elif r < 0.6 and first_order:
            flags += ["--intensional-pred", ",".join(rng.sample("pqre", rng.randint(1, 3)))]
        elif r < 0.6:
            flags += ["--intensional", ",".join(rng.sample(atoms, rng.randint(0, len(atoms)))) or " "]
        module, defined = _module(rng, atoms)
        solved = "prog.fo" if first_order else "prog.lp"
        cases.append({
            "program": program,
            "first_order": first_order,
            "module": module,
            "argv": {
                "solve": ["solve", solved, *flags],
                "split-solve": ["split-solve", solved, *flags],
                "check-definition": [
                    "check-definition", "prog.lp", "def.lp", "--defined", ",".join(defined), *flags[:2],
                ],
            },
        })
    return cases


def _worker(src: str) -> int:
    """Run the corpus read from stdin on the package under src, one JSON
    line per case and command on stdout: exit code, stdout and stderr, a
    traceback written to stderr when a run raises."""
    import contextlib
    import io
    import traceback

    sys.path.insert(0, os.path.abspath(src))
    from astable import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"astable was imported from {cli.__file__}, not from {src}")
    cases = json.load(sys.stdin)
    results = sys.stdout
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for case in cases:
            for name, text in (("prog.lp", case["program"]), ("prog.fo", case["first_order"]), ("def.lp", case["module"])):
                if text is not None:
                    with open(name, "w", encoding="utf-8") as fh:
                        fh.write(text)
            for command in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(case["argv"][command])
                    except Exception:  # a traceback is a finding, not a crash of the check
                        traceback.print_exc(file=err)
                        code = None
                results.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\n")
    return 0


def _run(src: str, cases: list[dict]) -> list[dict]:
    """Per case, per command, [exit code, stdout, stderr] on the tree src,
    all of them from one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", src],
        input=json.dumps(cases), capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        sys.exit(f"the run on {src} ended with exit code {proc.returncode}:\n{proc.stderr[-_SHOWN:]}")
    lines = iter(proc.stdout.splitlines())
    return [{command: json.loads(next(lines)) for command in COMMANDS} for _ in cases]


def _digests(results: list[dict]) -> dict[str, str]:
    out = {}
    for command in COMMANDS:
        h = hashlib.sha256()
        for got in results:
            h.update(json.dumps(got[command]).encode())
        out[command] = h.hexdigest()[:16]
    return out


def _show(k: int, case: dict, command: str, runs: list[tuple[str, list]]) -> None:
    print(f"case {k}: astable {' '.join(case['argv'][command])}")
    print(f"--- prog.lp\n{case['program']}--- prog.fo\n{case['first_order'] or ''}--- def.lp\n{case['module']}", end="")
    for label, (code, out, err) in runs:
        print(f"--- {label}: exit {code}\n{out[:_SHOWN]}--- {label} stderr\n{err[:_SHOWN]}", end="")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--worker"]:
        return _worker(args[1])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="one tree, or the parent's tree and the change's")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    opts = parser.parse_args(args)
    if len(opts.src) > 2:
        parser.error("give one source tree or two")
    cases = corpus(opts.seed, opts.count)
    results = [_run(src, cases) for src in opts.src]
    digests = [_digests(r) for r in results]
    for command in COMMANDS:
        print(command, *{d[command]: None for d in digests})
    if len(results) == 2:
        for k, (case, old, new) in enumerate(zip(cases, *results)):
            for command in COMMANDS:
                if old[command] != new[command]:
                    _show(k, case, command, [("parent", old[command]), ("change", new[command])])
                    return 1
        print(f"{len(cases)} cases, seed {opts.seed}: every command prints the same bytes in both trees")
        return 0
    agreed = 0
    for k, (case, got) in enumerate(zip(cases, results[0])):
        for command in COMMANDS:
            if got[command][0] is None or "Traceback (most recent call last)" in got[command][2]:
                _show(k, case, command, [("traceback", got[command])])
                return 1
        (code, out, _), (split_code, split_out, _) = got["solve"], got["split-solve"]
        if code == split_code == 0:
            if out != split_out:
                _show(k, case, "split-solve", [("solve", got["solve"]), ("split-solve", got["split-solve"])])
                return 1
            agreed += 1
    print(f"{len(cases)} cases, seed {opts.seed}: solve and split-solve agree on the {agreed} where both exit 0; no traceback")
    return 0


if __name__ == "__main__":
    sys.exit(main())
