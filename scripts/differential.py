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
whose bytes differ, which it prints.  With one tree, it checks every case
against an oracle of its own, which imports nothing from the package
either: it reads the program text (`_parse`), grounds a first-order one
over its domain, takes sigma and A as the CLI flags give them and lists
the A-stable models by brute force in here-and-there logic (`oracle`).
Every `solve` and `split-solve` that exits 0 must print those models, as
the README documents them, and every one that exits 2 must stop at a cap
that its signature passes, or on an `--intensional-pred` that names no
predicate of the program.  Every `check-definition` that exits 0 must
print the pairing that the oracle's own models give (`definition_oracle`):
its head line with the count, then each model of the base plus the module
with its projection, and every one that exits 2 at a cap must have a
signature that passes it.  Its rejections, `not a definition`, a defined
atom in the base and a counterexample, stay unchecked.  No run may end in
a traceback.  It prints the digests and exits 1 at the first case that
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
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


_TOKEN = re.compile(r"->|\w+|\S")
_ATOM = re.compile(r"(\w+)(?:\(([^)]*)\))?")  # the name and arguments of an atom of a flag's list
TOP, BOT = ("and", ()), ("or", ())


def _parse(text: str) -> tuple[list[str], list[tuple]]:
    """The domain, empty for a ground program, and the sentences of a
    program text as trees: ("atom", name, args), ("and", parts), ("or",
    parts), ("imp", lhs, rhs), ("forall" | "exists", variable, body).
    `not f` is ("imp", f, BOT); `top` and `bot` are the empty "and" and
    "or".  The grammar is the README's: `->` binds loosest and groups to
    the right, then `|`, `&` and `not`; a quantifier takes a bracketed
    formula."""
    domain = re.findall(r"^#domain (.*)\.$", text, re.M)
    tokens = _TOKEN.findall(re.sub(r"^#domain .*$", "", text, flags=re.M))
    at = 0

    def take() -> str:
        nonlocal at
        at += 1
        return tokens[at - 1]

    def implication() -> tuple:
        f = chain("or", "|", lambda: chain("and", "&", unary))
        if tokens[at] == "->":
            take()
            return ("imp", f, implication())
        return f

    def chain(op: str, sep: str, part) -> tuple:
        parts = [part()]
        while tokens[at] == sep:
            take()
            parts.append(part())
        return parts[0] if len(parts) == 1 else (op, tuple(parts))

    def unary() -> tuple:
        t = take()
        if t == "not":
            return ("imp", unary(), BOT)
        if t in ("top", "bot"):
            return TOP if t == "top" else BOT
        if t in ("forall", "exists"):
            variable = take()
            return (t, variable, unary())  # its body in brackets
        if t == "(":
            f = implication()
            take()  # ")"
            return f
        args = []
        if tokens[at] == "(":
            take()
            args.append(take())
            while take() == ",":
                args.append(take())
        return ("atom", t, tuple(args))

    sentences = []
    while at < len(tokens):
        sentences.append(implication())
        take()  # "."
    return [d.strip() for d in domain[0].split(",")] if domain else [], sentences


def _ground(f: tuple, domain: list[str], env: dict[str, str]) -> tuple:
    """f with each quantifier expanded over the domain: a forall is the
    conjunction of its instances, an exists their disjunction."""
    op = f[0]
    if op == "atom":
        return ("atom", f[1], tuple(env.get(t, t) for t in f[2]))
    if op in ("forall", "exists"):
        return ("and" if op == "forall" else "or", tuple(_ground(f[2], domain, {**env, f[1]: d}) for d in domain))
    if op == "imp":
        return ("imp", _ground(f[1], domain, env), _ground(f[2], domain, env))
    return (op, tuple(_ground(g, domain, env) for g in f[1]))


def _atoms(f: tuple, found: set) -> set:
    """The atoms of f, each as (name, args), added to `found`."""
    if f[0] == "atom":
        found.add(f[1:])
    else:
        for g in f[1:] if f[0] in ("imp", "forall", "exists") else f[1]:
            if isinstance(g, tuple):
                _atoms(g, found)
    return found


def _here_there(f: tuple, bit: dict):
    """f as a function of H and T, bitmasks over the signature with H
    inside T, true iff <H, T> satisfies f in here-and-there logic: an atom
    iff H holds it; an implication iff, read as a classical implication,
    it holds in <H, T> and T satisfies it."""
    op = f[0]
    if op == "atom":
        b = bit[f[1:]]
        return lambda h, t: h & b
    if op == "imp":
        lhs, rhs = _here_there(f[1], bit), _here_there(f[2], bit)
        return lambda h, t: (not lhs(h, t) or rhs(h, t)) and (h == t or not lhs(t, t) or rhs(t, t))
    parts = [_here_there(g, bit) for g in f[1]]
    if op == "and":
        return lambda h, t: all(p(h, t) for p in parts)
    return lambda h, t: any(p(h, t) for p in parts)


def _text(atom: tuple) -> str:
    name, args = atom
    return f"{name}({','.join(args)})" if args else name


def _braces(model: tuple) -> str:
    return "{" + ",".join(map(_text, model)) + "}"


def _flag_atoms(text: str) -> set:
    """The atoms of a flag's comma-separated list, each as (name, args)."""
    return {(m[0], tuple(m[1].split(",")) if m[1] else ()) for m in _ATOM.findall(text)}


def _stable(f: tuple, sigma: set, a: set) -> list[tuple]:
    """The A-stable models of the ground formula f over sigma, each as its
    sorted atoms, in the order of those tuples.  I is A-stable iff <I, I>
    satisfies f and no J with I - A inside J, J a proper subset of I, has
    <J, I> satisfy it (Ferraris, LPNMR 2005)."""
    order = sorted(sigma)
    bit = {x: 1 << k for k, x in enumerate(order)}
    holds = _here_there(f, bit)
    a_mask = sum(map(bit.__getitem__, a))
    models = []
    for i in range(1 << len(order)):
        if not holds(i, i):
            continue
        free = j = i & a_mask
        while j:
            j = (j - 1) & free
            if holds(i & ~a_mask | j, i):
                break
        else:
            models.append(tuple(x for k, x in enumerate(order) if i >> k & 1))
    return sorted(models)


def oracle(case: dict, argv: list[str]) -> tuple[int, str | None]:
    """The size of the signature that the command line argv of `solve` or
    `split-solve` gives the case, and the text of its A-stable models,
    None when the flags name a predicate the program has not.

    The signature is the atoms of a ground program, or of every predicate
    of a first-order one over its domain, with the `--sigma` extras and A.
    A is that signature before the extras, or as `--intensional*` says.
    The models (`_stable`) print one a line, atoms sorted, the lines in
    the order of the sorted atom tuples."""
    domain, sentences = _parse(case["first_order"] or case["program"])
    f = ("and", tuple(_ground(s, domain, {}) for s in sentences))
    sigma = _atoms(f, set())
    if case["first_order"]:
        arities = {name: len(args) for name, args in _atoms(("and", tuple(sentences)), set())}
        sigma = {(p, args) for p, k in arities.items() for args in itertools.product(domain, repeat=k)}
    flags = {t: value for t, value in zip(argv, [*argv[1:], ""]) if t.startswith("--")}
    a = set(sigma)
    if "--intensional-pred" in flags:
        preds = flags["--intensional-pred"].split(",")
        if not set(preds) <= arities.keys():
            return len(sigma), None
        a = {x for x in sigma if x[0] in preds}
    elif "--intensional" in flags:
        a = _flag_atoms(flags["--intensional"])
    elif "--intensional-none" in flags:
        a = set()
    sigma |= a | _flag_atoms(flags.get("--sigma", ""))
    return len(sigma), "".join(_braces(m) + "\n" for m in _stable(f, sigma, a))


def definition_oracle(case: dict) -> tuple[int, str | None]:
    """The size of the signature of the case's `check-definition` run, and
    what that run prints when it exits 0, or None when the oracle finds
    the module no conservative extension of the base.

    As `check_conservativity` takes them, sigma is the atoms of the base,
    of the module and the defined atoms, and A = sigma.  The module is
    conservative iff dropping the defined atoms maps the A-stable models
    of base plus module one-to-one onto those of the base; then the run
    prints `definition for K atoms: conservative (N stable models)`, K the
    defined atoms and N the models of both, and one line `{full} ->
    {projection}` per model, in the order of the sorted atom tuples."""
    argv = case["argv"]["check-definition"]
    q = _flag_atoms(argv[argv.index("--defined") + 1])
    base = ("and", tuple(_parse(case["program"])[1]))
    both = ("and", (base, ("and", tuple(_parse(case["module"])[1]))))
    sigma = _atoms(both, set()) | q
    full = _stable(both, sigma, sigma)
    projected = [tuple(x for x in m if x not in q) for m in full]
    if sorted(projected) != _stable(base, sigma, sigma):
        return len(sigma), None
    head = f"definition for {len(q)} atoms: conservative ({len(full)} stable models)\n"
    return len(sigma), head + "".join(f"{_braces(m)} -> {_braces(p)}\n" for m, p in zip(full, projected))


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


def check_one_tree(cases: list[dict], results: list[dict], seed: int) -> int:
    """The one-tree check of the results of one tree on the cases, each
    run of `solve` and `split-solve` against `oracle` and each run of
    `check-definition` that exits 0 or at a cap against
    `definition_oracle`: 0 when every case passes, else 1, once the first
    case that fails is printed."""
    answered = capped = agreed = certified = refused = unchecked = 0
    for k, (case, got) in enumerate(zip(cases, results)):
        for command in COMMANDS:
            if got[command][0] is None or "Traceback (most recent call last)" in got[command][2]:
                _show(k, case, command, [("traceback", got[command])])
                return 1
        argv = case["argv"]["solve"]
        size, want = oracle(case, argv)
        cap = int(argv[argv.index("--max-atoms") + 1])
        for command in ("solve", "split-solve"):
            code, out, err = got[command]
            if want is None:  # the flags name a predicate the program has not
                right = code == 2 and "error: unknown predicate" in err
            else:
                right = out == want if code == 0 else code == 2 and "exceeds the cap" in err and size > cap
            if not right:
                label = f"oracle, {size} atoms" if want is not None else "oracle: an unknown predicate"
                _show(k, case, command, [(label, [0, want or "", ""]), (command, got[command])])
                return 1
            answered += code == 0
            capped += code == 2 and want is not None
        agreed += got["solve"][0] == got["split-solve"][0] == 0
        code, out, err = got["check-definition"]
        if code == 0 or code == 2 and "exceeds the cap" in err:
            argv = case["argv"]["check-definition"]
            cap = int(argv[argv.index("--max-atoms") + 1])
            size, want = definition_oracle(case)
            if not (out == want and size <= cap if code == 0 else size > cap):
                label = f"oracle, {size} atoms" if want is not None else f"oracle: not conservative, {size} atoms"
                _show(k, case, "check-definition", [(label, [0, want or "", ""]), ("check-definition", got["check-definition"])])
                return 1
            certified += code == 0
            refused += code == 2
        else:
            unchecked += 1
    print(f"oracle: the {answered} runs of solve and split-solve that exit 0 print its models, "
          f"the {capped} that exit 2 do so at a cap their signature passes, and every other names an unknown predicate")
    print(f"oracle: the {certified} runs of check-definition that exit 0 print its pairs, the {refused} that exit 2 "
          f"at a cap do so at a cap their signature passes; its {unchecked} rejections stay unchecked")
    print(f"{len(cases)} cases, seed {seed}: solve and split-solve agree on the {agreed} where both exit 0; no traceback")
    return 0


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
    return check_one_tree(cases, results[0], opts.seed)

if __name__ == "__main__":
    sys.exit(main())
