"""Seeded workload inputs and their exact expected outputs.

Every expected stdout and exit code is computed here, outside the timed
region, from a closed form or a small oracle of this module's own.  Nothing
is recorded from the program under test and nothing is imported from it or
from its tests, so the oracles stay independent of both.

One seed drives atom renaming, conjunct order, the colouring chords and the
`verify --seed`.  Instance sizes never depend on the seed.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

SUITES = (
    "definitions_theorem", "lemma1", "lemma2", "lemma3", "lemma4", "lemma5",
    "lemma6", "lemma7", "lemma8", "lemma9", "prop1", "prop3", "prop4_grounding",
    "split_lemma", "split_theorem",
)

# Why each workload exists; run.py prints these and BENCHMARK.json repeats them.
WHY = {
    "enumerate": "brute-force solve and check-definition, where the per-candidate "
                 "minimality check after the bit-vector sweep is nearly all the time",
    "modular": "split-solve, where depgraph, the split plan and reference is_a_stable "
               "checks do the work and the whole-signature sweep does almost none",
    "many_small": "verify suites, ground and parse: thousands of calls on formulas of at "
                  "most 5 atoms, where per-call fixed cost dominates",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it must produce.

    `stdout` is the exact expected text; when it is None, `stdout_re` must
    match the whole output instead (used only where a count is not known in
    closed form, the skipped draws of `verify`).  `stderr` names the one
    stderr shape allowed: "" (nothing), "fallback" (exactly the designed
    brute-force fallback warning) or "error" (one `error:` line).
    """

    label: str
    argv: tuple[str, ...]
    exit_code: int
    stdout: str | None
    stdout_re: str | None = None
    stderr: str = ""

    def check(self, code, out: str, err: str) -> str | None:
        """None when the result is right, else a one-line reason."""
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        if self.stdout is not None:
            if out != self.stdout:
                return f"stdout differs ({len(out)} chars, expected {len(self.stdout)})"
        elif not re.fullmatch(self.stdout_re, out):
            return f"stdout {out[:80]!r} does not match {self.stdout_re!r}"
        if "Traceback" in err:
            return "traceback on stderr"
        lines = err.splitlines()
        if self.stderr == "":
            ok = not err
        elif self.stderr == "fallback":
            ok = len(lines) == 1 and "falling back to brute force" in lines[0]
        else:
            ok = len(lines) == 1 and lines[0].startswith("error: ")
        return None if ok else f"unexpected stderr {err[:120]!r}"


# --- atoms, interpretations and their canonical text -------------------------

def fmt_atom(a) -> str:
    name, args = a
    return name if not args else f"{name}({','.join(args)})"


def fmt_interp(m) -> str:
    return "{" + ",".join(fmt_atom(a) for a in sorted(m)) + "}"


def model_lines(models) -> str:
    """Stdout of a model set: one sorted interpretation per line, lines
    ordered by their sorted atom sequences."""
    ordered = sorted({frozenset(m) for m in models}, key=lambda m: tuple(sorted(m)))
    return "".join(fmt_interp(m) + "\n" for m in ordered)


def subsets(items):
    items = list(items)
    return [frozenset(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


class Namer:
    """Seeded renaming: distinct names whose sort order differs per seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.rng.randrange(1, 1000)}"
            if name not in self.used:
                self.used.add(name)
                return name

    def names(self, n: int, prefix: str = "p") -> list[str]:
        return [self.fresh(prefix) for _ in range(n)]


def program(rules, rng: random.Random) -> str:
    rules = list(rules)
    rng.shuffle(rules)
    return "".join(r + ".\n" for r in rules)


# --- a canonical-form oracle for the ground printer --------------------------
# Formulas are tuples: ("a", name, args), ("c", children), ("d", children),
# ("i", lhs, rhs).  Set-valued nodes deduplicate and order their children by
# the structural key; printing follows the documented precedence
# impl < disj < conj < unary.

def _key(f):
    if f[0] == "a":
        return (0, f[1], f[2])
    if f[0] == "i":
        return (3, _key(f[1]), _key(f[2]))
    return (1 if f[0] == "c" else 2, tuple(_key(c) for c in f[1]))


def A(name, *args):
    return ("a", name, tuple(args))


def C(children):
    return ("c", tuple(sorted(set(children), key=_key)))


def I(lhs, rhs):
    return ("i", lhs, rhs)


BOT = ("d", ())
_IMPL, _DISJ, _CONJ, _UNARY = 0, 1, 2, 3


def fmt_formula(f, ctx: int = _IMPL) -> str:
    tag = f[0]
    if tag == "a":
        return fmt_atom((f[1], f[2]))
    if tag in ("c", "d"):
        kids = f[1]
        if not kids:
            return "top" if tag == "c" else "bot"
        if len(kids) == 1:
            return ("And{" if tag == "c" else "Or{") + fmt_formula(kids[0]) + "}"
        if tag == "c":
            s = " & ".join(fmt_formula(k, _UNARY) for k in kids)
            return s if ctx <= _CONJ else f"({s})"
        s = " | ".join(fmt_formula(k, _CONJ) for k in kids)
        return s if ctx <= _DISJ else f"({s})"
    if f[2] == BOT:
        return "not " + fmt_formula(f[1], _UNARY)
    s = fmt_formula(f[1], _DISJ) + " -> " + fmt_formula(f[2])
    return s if ctx == _IMPL else f"({s})"


# --- instances ----------------------------------------------------------------

class PassWriter:
    """Writes one workload's input files and collects its commands."""

    def __init__(self, workdir: Path, seed: int, salt: int):
        self.workdir = workdir
        self.rng = random.Random(seed * 7_919 + salt)
        self.commands: list[Command] = []

    def file(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(self, label, argv, exit_code=0, stdout="", **kw) -> None:
        self.commands.append(Command(label, tuple(argv), exit_code, stdout, **kw))

    def namer(self) -> Namer:
        return Namer(random.Random(self.rng.random()))

    def negchain(self, n: int) -> tuple[str, str]:
        """p0 | not p0, not p_i -> p_(i+1): two alternating stable models."""
        p = self.namer().names(n)
        rules = [f"{p[0]} | not {p[0]}"] + [f"not {p[i]} -> {p[i + 1]}" for i in range(n - 1)]
        models = [{(p[i], ()) for i in range(start, n, 2)} for start in (0, 1)]
        return program(rules, self.rng), model_lines(models)

    def choices(self, n: int, *, solvable: bool = True) -> tuple[str, str | None]:
        """n independent `c | not c`: every subset is stable.  Past the cap
        (`solvable` false) there is no model text to expect."""
        names = self.namer().names(n, "c")
        rules = [f"{a} | not {a}" for a in names]
        models = model_lines(subsets((a, ()) for a in names)) if solvable else None
        return program(rules, self.rng), models

    def colouring(self, n: int, chords: int) -> tuple[str, str]:
        """3-colouring of an n-cycle plus seeded chords; models are the
        proper colourings, enumerated directly over 3**n."""
        edges = {(v, (v + 1) % n) for v in range(n)}
        candidates = [(u, v) for u, v in itertools.combinations(range(n), 2)
                      if (u, v) not in edges and (v, u) not in edges]
        edges |= set(self.rng.sample(candidates, chords))
        names = self.namer()
        col = [[names.fresh("k") for _ in range(3)] for _ in range(n)]
        rules = []
        for v in range(n):
            for c in range(3):
                o1, o2 = (col[v][d] for d in range(3) if d != c)
                rules.append(f"not {o1} & not {o2} -> {col[v][c]}")
        for u, v in sorted(edges):
            rules.extend(f"not ({col[u][c]} & {col[v][c]})" for c in range(3))
        models = [
            {(col[v][assign[v]], ()) for v in range(n)}
            for assign in itertools.product(range(3), repeat=n)
            if all(assign[u] != assign[v] for u, v in edges)
        ]
        return program(rules, self.rng), model_lines(models)

    def guard(self, n: int) -> tuple[str, str, str]:
        """The running example forall X (not p(X)) -> q with q intensional:
        every nonempty p-set is a model, and {q} covers the empty one."""
        names = self.namer()
        p, q = names.fresh("r"), names.fresh("r")
        dom = [names.fresh("d") for _ in range(n)]
        text = f"#domain {', '.join(dom)}.\nforall X (not {p}(X)) -> {q}.\n"
        models = [s for s in subsets((p, (d,)) for d in dom) if s] + [{(q, ())}]
        return text, q, model_lines(models)

    def tc_definition(self, n: int) -> tuple[str, str, str, str]:
        """Edge choices as the base, transitive closure as the definition."""
        names = self.namer()
        e, t = names.fresh("r"), names.fresh("r")
        dom = [names.fresh("d") for _ in range(n)]
        pairs = list(itertools.product(dom, repeat=2))
        base = program([f"{e}({x},{y}) | not {e}({x},{y})" for x, y in pairs], self.rng)
        module = program(
            [f"{e}({x},{y}) -> {t}({x},{y})" for x, y in pairs]
            + [f"{t}({x},{y}) & {t}({y},{z}) -> {t}({x},{z})"
               for x, y, z in itertools.product(dom, repeat=3)],
            self.rng,
        )
        defined = ",".join(f"{t}({x},{y})" for x, y in pairs)
        rows = []
        for edges in subsets(pairs):
            closure = set(edges)
            while True:
                more = {(x, z) for x, y in closure for y2, z in closure if y == y2} - closure
                if not more:
                    break
                closure |= more
            full = {(e, xy) for xy in edges} | {(t, xy) for xy in closure}
            rows.append((tuple(sorted(full)), full, {(e, xy) for xy in edges}))
        rows.sort(key=lambda r: r[0])
        out = f"definition for {len(pairs)} atoms: conservative ({len(rows)} stable models)\n"
        out += "".join(f"{fmt_interp(full)} -> {fmt_interp(proj)}\n" for _, full, proj in rows)
        return base, module, defined, out

    def layered_chain(self, blocks: int, width: int) -> tuple[str, str]:
        """Each layer a positive cycle, layer l+1 seeded by `not` of layer l:
        the unique stable model holds exactly the even layers."""
        names = self.namer()
        p = [[names.fresh("q") for _ in range(width)] for _ in range(blocks)]
        rules = [p[0][0]]
        rules += [f"not {p[k - 1][width - 1]} -> {p[k][0]}" for k in range(1, blocks)]
        for layer in p:
            rules += [f"{layer[k - 1]} -> {layer[k]}" for k in range(1, width)]
            if width > 1:
                rules.append(f"{layer[width - 1]} -> {layer[0]}")
        model = {(a, ()) for k in range(0, blocks, 2) for a in p[k]}
        return program(rules, self.rng), model_lines([model])

    def tc_guard_ground(self, n: int) -> tuple[str, str]:
        """Transitive closure plus the guard over n elements, and the exact
        canonical text its grounding prints."""
        names = self.namer()
        e, t, g, h = (names.fresh("r") for _ in range(4))
        dom = [names.fresh("d") for _ in range(n)]
        sentences = [
            (f"forall X (forall Y ({e}(X,Y) -> {t}(X,Y)))",
             C(C(I(A(e, x, y), A(t, x, y)) for y in dom) for x in dom)),
            (f"forall X (forall Y (forall Z ({e}(X,Y) & {t}(Y,Z) -> {t}(X,Z))))",
             C(C(C(I(C([A(e, x, y), A(t, y, z)]), A(t, x, z)) for z in dom) for y in dom)
               for x in dom)),
            (f"forall X (not {g}(X)) -> {h}",
             I(C(I(A(g, x), BOT) for x in dom), A(h))),
        ]
        self.rng.shuffle(sentences)
        text = f"#domain {', '.join(dom)}.\n" + "".join(s + ".\n" for s, _ in sentences)
        return text, "".join(fmt_formula(f) + ".\n" for _, f in sentences)


def build(workload: str, seed: int, workdir: Path, passes: int) -> list[list[Command]]:
    """Write the workload's inputs under `workdir` and return the commands
    of each pass with their expected results.

    Every pass draws fresh instances of the same sizes from the run seed:
    cost varies with the draw (atom order decides which conjuncts
    short-circuit, chords decide how many candidates survive, the verify
    seed decides the suite instances), and a run should measure that
    distribution rather than one draw of it.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    salt = sorted(WHY).index(workload)
    make = {"enumerate": _enumerate, "modular": _modular, "many_small": _many_small}[workload]
    plan = []
    for p in range(passes):
        pass_dir = workdir / f"pass{p}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        b = PassWriter(pass_dir, seed * 1_000 + p, salt)
        make(b)
        plan.append(b.commands)
    return plan


def _enumerate(b: PassWriter) -> None:
    for n in (16, 18):
        text, out = b.negchain(n)
        b.add(f"solve negchain{n}", ["solve", b.file(f"negchain{n}.lp", text)], stdout=out)
    text, out = b.choices(12)
    b.add("solve choices12", ["solve", b.file("choices12.lp", text)], stdout=out)
    text, out = b.colouring(8, chords=3)
    b.add("solve color8", ["solve", b.file("color8.lp", text)], stdout=out)
    text, q, out = b.guard(6)
    b.add("solve guard6", ["solve", b.file("guard6.fo", text), "--intensional-pred", q],
          stdout=out)
    base, module, defined, out = b.tc_definition(3)
    b.add("check-definition tc3",
          ["check-definition", b.file("tc3_base.lp", base), b.file("tc3_def.lp", module),
           "--defined", defined], stdout=out)
    text, _ = b.choices(26, solvable=False)
    b.add("solve cap26", ["solve", b.file("cap26.lp", text)], exit_code=2, stderr="error")


def _modular(b: PassWriter) -> None:
    for blocks, width in ((8, 5), (12, 6), (9, 9), (3, 11)):
        text, out = b.layered_chain(blocks, width)
        name = f"chain{blocks}x{width}"
        b.add(f"split-solve {name}", ["split-solve", b.file(f"{name}.lp", text)], stdout=out)
    text, out = b.choices(12)
    b.add("split-solve choices12", ["split-solve", b.file("choices12.lp", text)], stdout=out)
    x, y, u, v = b.namer().names(4)
    text = program([f"{x} | {y}", f"{x} -> {u}", f"{y} -> {v}"], b.rng)
    b.add("split-solve fallback", ["split-solve", b.file("fallback.lp", text)],
          stdout=model_lines([{(x, ()), (u, ())}, {(y, ()), (v, ())}]), stderr="fallback")
    p = b.namer().names(16)
    text = program([p[0]] + [f"{p[i]} -> {p[i + 1]}" for i in range(15)], b.rng)
    b.add("split-solve lemma16",
          ["split-solve", b.file("lemma16.lp", text),
           "--part1", ",".join(p[0::2]), "--part2", ",".join(p[1::2])],
          stdout=model_lines([{(a, ()) for a in p}]))


def _many_small(b: PassWriter) -> None:
    verify_seed = str(b.rng.randrange(1, 1 << 30))
    for suite in SUITES:
        b.add(f"verify {suite}", ["verify", "--suite", suite, "--iters", "100", "--seed", verify_seed],
              stdout=None, stdout_re=rf"suite {suite}: 100 passed, 0 failed \(\d+ draws skipped\)\n")
    text, out = b.tc_guard_ground(8)
    b.add("ground tcguard8", ["ground", b.file("tcguard8.fo", text)], stdout=out)
    b.add("parse tcguard8", ["parse", b.file("tcguard8.lp", out)], stdout=out)
