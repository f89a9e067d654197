"""The benchmark's workloads: inputs made from a seed, the call each item
makes into autgrp, and the check of its output.

Every input is generated here, from ``random.Random(f"{seed}:...")``; the
package only ever receives the finished words.  Each workload is a closed
loop with one client: the next item starts when the previous one returned.
An item is one verdict, one analysed automaton property, or one CLI process.

Each item returns an ``Outcome``: its verdict (or exit code), the exact
counts the step tripwire records for it, and the simulated steps it added.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from hostspeed import ticker_slowdown

HERE = Path(__file__).resolve().parent


@dataclass
class Item:
    key: str  # stable slot name; the same key under another seed holds another input
    text: str  # the input as the program receives it
    expect: Any  # verdict or (exit code, stdout verdict); None when an oracle decides
    args: tuple = ()

    @property
    def digest(self) -> str:
        return hashlib.sha1(self.text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    verdict: Any
    counts: tuple
    steps: int
    # set by an item that measures the host's speed while it runs: the time
    # its kernel slices took, and the slowdown they saw
    probe_s: float = 0.0
    slowdown: float | None = None


class Workload:
    """A workload also defines ``corpus(seed) -> list[Item]`` and
    ``run(item) -> Outcome``; ``tracer`` is set while a traced pass runs."""

    name = ""
    why = ""
    sizes = ""
    tracer = None

    def setup(self) -> None:
        """First-time builds after ``import autgrp``; counted in setup_s."""

    def check(self, item: Item, out: Outcome) -> bool:
        return out.verdict == item.expect

    def warms(self, item: Item) -> bool:
        """Whether the item runs once, untimed, before the timed passes."""
        return False

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---- word generators (benchmark side, never the package's own) ----

GRIGORCHUK_SHORT_RELATORS = ("aa", "bb", "cc", "dd", "bcd", "cbd")
GRIGORCHUK_RELATORS = GRIGORCHUK_SHORT_RELATORS + ("ad" * 4, "ac" * 8, "ab" * 16)


def conjugate_product(rng: random.Random, n: int, relators, letters: str, max_conj: int) -> str:
    """Concatenated conjugates g r g^-1 of relators until the length reaches n.
    Grigorchuk generators are involutions, so g^-1 is g reversed."""
    parts = []
    length = 0
    while length < n:
        g = "".join(rng.choices(letters, k=rng.randint(0, max_conj)))
        part = g + rng.choice(relators) + g[::-1]
        parts.append(part)
        length += len(part)
    return "".join(parts)


def grigorchuk_nontrivial(rng: random.Random, n: int) -> str:
    """Random word with an odd number of a's.  Its abelianization image has
    the a bit set, so it is nontrivial, and it swaps the two subtrees (a is
    the only active generator), so every solver rejects it at the first
    branch-permutation scan: its cost depends on n, not on the seed."""
    w = rng.choices("abcd", k=n)
    if w.count("a") % 2 == 0:
        w[-1] = "b" if w[-1] == "a" else "a"
    return "".join(w)


def basilica_nontrivial(rng: random.Random, n: int) -> str:
    """Random word with an odd number of active letters a, A.  Its a-exponent
    sum is odd, so it is nontrivial (basilica abelianizes onto Z^2), and it
    swaps the two subtrees, so every solver rejects it at the first
    branch-permutation scan: its cost depends on n, not on the seed."""
    w = rng.choices("abAB", k=n)
    if (w.count("a") + w.count("A")) % 2 == 0:
        w[-1] = {"a": "b", "A": "B", "b": "a", "B": "A"}[w[-1]]
    return "".join(w)


def free_trivial(rng: random.Random, n: int, letters: str) -> str:
    """u u^-1 for a random u of length n/2 (upper case spells inverses)."""
    u = "".join(rng.choices(letters, k=n // 2))
    return u + u[::-1].swapcase()


# ---- stage-rewrite ----

class StageRewrite(Workload):
    name = "stage-rewrite"
    why = (
        "solvers does nearly all timed work: staged block rewriting on long tapes; "
        "ROADMAP items 2 and 3 act only here"
    )
    sizes = (
        "basilica (ab)^(2^m) m=11..14 (n=2^12..2^15); poly1 (babA)^(2^m) m=10,11; "
        "grigorchuk relator-conjugate products and random words, n=2^12..2^15; "
        "basilica random words n=2^12..2^15; 16 tapes of short segments, n=2^12,2^13; "
        "8 words on the lazy basilica item1 (8,2) certificate, n=2^12,2^13; 102 items"
    )

    def setup(self) -> None:
        import autgrp

        self.autgrp = autgrp
        cat = autgrp.catalog
        build = autgrp.contraction.build_certificate
        self.automata = {n: cat.get(n) for n in ("basilica", "grigorchuk", "poly1")}
        bas, gri = self.automata["basilica"], self.automata["grigorchuk"]
        self.certs = {
            "bas-item2-1-1": build(bas, 1, 1, "item2"),
            "gri-item1-2-1": build(gri, 2, 1, "item1"),
            # above DEFAULT_TABLE_BUDGET: entries are computed lazily
            "bas-item1-8-2": build(bas, 8, 2, "item1"),
        }

    def corpus(self, seed: int) -> list[Item]:
        rng = random.Random(f"{seed}:stage-rewrite")
        items = []
        for m in (11, 12, 13, 14):
            # basilica is torsion free and ab is not trivial
            items.append(Item(f"basilica-ab/m{m}", "ab" * 2**m, False, ("bounded", "basilica", "bas-item2-1-1")))
        for m in (10, 11):
            # every poly1-comm word rejects (oracle-checked for 2^m <= 16)
            items.append(Item(f"poly1-comm/m{m}", "babA" * 2**m, False, ("polynomial", "poly1", 1)))
        for e in (12, 13, 14, 15):
            for j in range(6):
                w = conjugate_product(rng, 2**e, GRIGORCHUK_RELATORS, "abcd", 8)
                solver = ("bounded", "contracting")[j % 2]
                items.append(Item(f"grigorchuk-trivial/n{e}/{j}", w, True, (solver, "grigorchuk", "gri-item1-2-1")))
        for e in (12, 13, 14, 15):
            for j in range(6):
                w = grigorchuk_nontrivial(rng, 2**e)
                solver = ("bounded", "contracting")[j % 2]
                items.append(Item(f"grigorchuk-random/n{e}/{j}", w, False, (solver, "grigorchuk", "gri-item1-2-1")))
                w = basilica_nontrivial(rng, 2**e)
                items.append(Item(f"basilica-random/n{e}/{j}", w, False, ("bounded", "basilica", "bas-item2-1-1")))
        for e in (12, 13):
            for j in range(8):
                segs = []
                length = 0
                while length < 2**e:
                    segs.append(conjugate_product(rng, 1, GRIGORCHUK_SHORT_RELATORS, "abcd", 3))
                    length += len(segs[-1]) + 1
                trivial = j < 6
                if not trivial:
                    segs.insert(rng.randrange(len(segs)), grigorchuk_nontrivial(rng, rng.randint(8, 16)))
                solver = ("bounded", "contracting")[j % 2]
                items.append(Item(f"segments/n{e}/{j}", "#".join(segs), trivial, (solver, "grigorchuk", "gri-item1-2-1")))
        for e in (12, 13):
            for j in range(2):
                w = free_trivial(rng, 2**e, "abAB")
                items.append(Item(f"lazy-trivial/n{e}/{j}", w, True, ("bounded", "basilica", "bas-item1-8-2")))
            w = basilica_nontrivial(rng, 2**e)
            items.append(Item(f"lazy-random/n{e}", w, False, ("bounded", "basilica", "bas-item1-8-2")))
            items.append(Item(f"lazy-ab/n{e}", "ab" * 2 ** (e - 1), False, ("bounded", "basilica", "bas-item1-8-2")))
        return items

    def run(self, item: Item) -> Outcome:
        solver, aut, extra = item.args
        S = self.autgrp.solvers
        A = self.automata[aut]
        if solver == "polynomial":
            rep = S.solve_polynomial(A, extra, item.text)
        elif solver == "bounded":
            rep = S.solve_bounded(A, self.certs[extra], item.text)
        else:
            rep = S.solve_contracting(A, self.certs[extra], item.text)
        return Outcome(rep.verdict, (rep.steps, rep.stages), rep.steps)

    def warms(self, item: Item) -> bool:
        # The lazy certificate memoizes each block rewrite on first use.  A
        # user solving many words with one certificate pays that once, so its
        # items run once untimed and the timed passes see the steady state.
        return item.args[2] == "bas-item1-8-2"


# ---- halving ----

HALVING_RELATORS = {
    "z4": ("aA", "Aa", "e"),
    "z2": ("abAB", "baBA", "aA", "bB", "e"),
    # ab = ba c with c central, so both commutator spellings equal c
    "heis": ("ABabC", "abABC", "cC", "aA", "bB", "e"),
}
HALVING_GENS = {"z4": "aAe", "z2": "aAbBe", "heis": "aAbBcCe"}
INVERSE = str.maketrans("abcABC", "ABCabc")


class Halving(Workload):
    name = "halving"
    why = (
        "nilpotent parse and numpy halving passes on z4, z2, heis; bypasses solvers and "
        "contraction, so stage-engine changes should not move it"
    )
    sizes = "z4, z2, heis x n=2^14,2^15,2^16 x (6 trivial + 6 first-scan rejects); 108 items"

    def setup(self) -> None:
        import autgrp

        self.autgrp = autgrp
        self.instances = {g: autgrp.nilpotent.build_instance(g) for g in ("z4", "z2", "heis")}
        self.oracle = {}  # (key, input digest) -> coordinate-oracle verdict

    def corpus(self, seed: int) -> list[Item]:
        rng = random.Random(f"{seed}:halving")
        items = []
        for g in ("z4", "z2", "heis"):
            for e in (14, 15, 16):
                n = 2**e
                for j in range(6):
                    # product of conjugates u r u^-1, padded with identity letters
                    parts = []
                    length = 0
                    while True:
                        u = "".join(rng.choices(HALVING_GENS[g], k=rng.randint(0, 12)))
                        part = u + rng.choice(HALVING_RELATORS[g]) + u[::-1].translate(INVERSE)
                        if length + len(part) > n:
                            break
                        parts.append(part)
                        length += len(part)
                    w = "".join(parts) + "e" * (n - length)
                    items.append(Item(f"{g}/trivial/n{e}/{j}", w, True, (g,)))
                for j in range(6):
                    # a-exponent sum not divisible by 4 puts the word outside
                    # phi(G), so it rejects at the first coset scan
                    w = rng.choices(HALVING_GENS[g], k=n)
                    if (w.count("a") - w.count("A")) % 4 == 0:
                        w[-1] = {"a": "e", "A": "a"}.get(w[-1], "a")
                    items.append(Item(f"{g}/random/n{e}/{j}", "".join(w), False, (g,)))
        return items

    def run(self, item: Item) -> Outcome:
        inst = self.instances[item.args[0]]
        word = inst.parse(item.text)
        rep = self.autgrp.nilpotent.solve_nilpotent(inst, word)
        return Outcome(rep.verdict, (rep.steps, rep.stages), rep.steps)

    def check(self, item: Item, out: Outcome) -> bool:
        slot = (item.key, item.digest)
        if slot not in self.oracle:
            self.oracle[slot] = self.instances[item.args[0]].is_trivial(item.text)
        return out.verdict == self.oracle[slot] == item.expect


# ---- search ----

SEARCH_PLAN = {
    # automaton: (check_item cells, growth radius)
    "basilica": (((7, 1, "item2"), (3, 2, "item1")), 9),
    "grigorchuk": (((6, 1, "item1"), (4, 2, "item3")), 10),
    "poly1": (((6, 1, "item2"), (3, 2, "item1")), 9),
    "adding": (((6, 1, "item1"), (3, 2, "item3")), 10),
}
# Trivial and random words per automaton.  Basilica and poly1 words take
# about 2.5 ms, grigorchuk and adding words 0.6-1.4 ms: weighting the slower
# pair puts the median item inside their cluster instead of on the gap
# between the two, where it would flip from run to run.  So many words keep
# the dozen slow analysis items under a tenth of the items, so the p90 tail
# also falls inside the word cluster, and they average out the seed's effect
# on the steps of short words.
SEARCH_WORDS = {"basilica": 48, "grigorchuk": 32, "poly1": 48, "adding": 32}


class Search(Workload):
    name = "search"
    why = (
        "cold certificate search, cell checks, classification, growth balls and short-word "
        "auto vs oracle solves: the only workload timing contraction scans and words balls"
    )
    sizes = (
        "basilica, grigorchuk, poly1, adding; per automaton best_certificate box (6,2), two "
        "check_item cells, classify, growth radius 9-10, 32-48 trivial u u^-1 and as many random "
        "words of length 8-14; 340 items"
    )
    # Nothing is warmed: a user certifying an automaton pays the ball,
    # closure and certificate caches on every CLI run, so the first item of
    # each automaton clears every lru_cache of the package before it runs.

    def setup(self) -> None:
        import autgrp

        self.autgrp = autgrp
        self.caches = (
            autgrp.words.cayley_ball,
            autgrp.words._oracle_memo,
            autgrp.automata.inverse_closure,
            autgrp.catalog.get,
        )

    def corpus(self, seed: int) -> list[Item]:
        rng = random.Random(f"{seed}:search")
        items = []
        for aut, (cells, radius) in SEARCH_PLAN.items():
            letters = "abAB" if aut in ("basilica", "poly1") else ("aA" if aut == "adding" else "abcd")
            items.append(Item(f"{aut}/best_certificate", f"{aut} 6 2", None, (aut, "best", (6, 2), True)))
            for cell in cells:
                items.append(Item(f"{aut}/check_item/{cell}", f"{aut} {cell}", None, (aut, "cell", cell, False)))
            items.append(Item(f"{aut}/classify", aut, None, (aut, "classify", (), False)))
            items.append(Item(f"{aut}/growth", f"{aut} {radius}", None, (aut, "growth", (radius,), False)))
            for j in range(SEARCH_WORDS[aut]):
                n = 8 + 2 * (j % 4)
                if aut == "grigorchuk":
                    u = "".join(rng.choices(letters, k=n // 2))
                    trivial = u + u[::-1]
                else:
                    trivial = free_trivial(rng, n, letters)
                items.append(Item(f"{aut}/trivial/{j}", trivial, True, (aut, "word", (), False)))
                rand = "".join(rng.choices(letters, k=n))
                items.append(Item(f"{aut}/random/{j}", rand, None, (aut, "word", (), False)))
        return items

    def run(self, item: Item) -> Outcome:
        aut, op, params, cold = item.args
        g = self.autgrp
        if cold:
            for cache in self.caches:
                cache.cache_clear()
        A = g.catalog.get(aut)
        if op == "best":
            cert = g.solvers.best_certificate(A, *params)
            counts = None if cert is None else (cert.mode, cert.block, cert.power)
            return Outcome(None, counts, 0)
        if op == "cell":
            r = g.contraction.check_item(A, *params)
            return Outcome(None, (r.passed, r.words_checked, r.max_section, r.max_section_sum), 0)
        if op == "classify":
            c = g.contraction.classify_activity(A)
            return Outcome(None, (c.kind, c.degree, c.bound), 0)
        if op == "growth":
            return Outcome(None, g.words.growth(A, *params).gamma, 0)
        auto = g.solvers.solve_auto(A, item.text)
        oracle = g.solvers.solve_oracle(A, item.text)
        counts = (auto.method, auto.steps, auto.stages, oracle.steps)
        return Outcome((auto.verdict, oracle.verdict), counts, auto.steps + oracle.steps)

    def check(self, item: Item, out: Outcome) -> bool:
        if item.args[1] != "word":
            return True  # exact results are pinned by the tripwire
        auto, oracle = out.verdict
        return auto == oracle and (item.expect is None or auto == item.expect)


# ---- cold-cli ----

STEPS_RE = re.compile(r"stages=(\d+) steps=(\d+)")


class ColdCli(Workload):
    name = "cold-cli"
    why = (
        "one fresh autgrp CLI process per command, imports included: the only workload "
        "dominated by start-up (heis is built at import)"
    )
    sizes = (
        "6 commands per pass: solve grigorchuk cdb, solve heis ABabC, certify grigorchuk "
        "L2 k1 item1, classify poly1, solve basilica <seeded 24-letter word>, bench basilica-ab --fit"
    )
    # Every process starts cold by definition; nothing is warmed.  Untraced,
    # a process runs through cli_timed.py, which measures the host's speed
    # inside the process while the command runs.

    def setup(self) -> None:
        import autgrp  # noqa: F401  the import every CLI process pays

        root = HERE.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.out_dir = root / ".perfbench_out"
        self.child_rss_kb = 0

    def corpus(self, seed: int) -> list[Item]:
        rng = random.Random(f"{seed}:cold-cli")
        word = basilica_nontrivial(rng, 24)
        commands = [
            ("solve-grigorchuk", ["solve", "--automaton", "grigorchuk", "--word", "cdb"], (0, "accept")),
            ("solve-heis", ["solve", "--group", "heis", "--word", "ABabC"], (0, "accept")),
            ("certify", ["certify", "--automaton", "grigorchuk", "-L", "2", "-k", "1", "--mode", "item1"], (0, "pass")),
            ("classify", ["classify", "--automaton", "poly1"], (0, "polynomial (degree 1)")),
            ("solve-basilica", ["solve", "--automaton", "basilica", "--word", word], (1, "reject")),
            ("bench", ["bench", "--family", "basilica-ab", "--fit"], (0, "n log n")),
        ]
        return [Item(key, " ".join(argv), expect, tuple(argv)) for key, argv, expect in commands]

    def run(self, item: Item) -> Outcome:
        argv = list(item.args)
        if self.tracer is not None:
            side_path = self.out_dir / f"cli-spans-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(side_path), *argv]
        else:
            side_path = self.out_dir / f"cli-slices-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "cli_timed.py"), str(side_path), *argv]
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            text = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        side = json.loads(side_path.read_text())
        side_path.unlink()
        out = cli_outcome(proc.returncode, text)
        if self.tracer is not None:
            self.tracer.extend(side, self.tracer.item_span)
        elif side:
            out.probe_s = sum(side)
            out.slowdown = ticker_slowdown(side)
        return out

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb  # the largest CLI process


def cli_outcome(code: int, text: str) -> Outcome:
    """Exit code, the verdict printed on stdout, and the steps it reports."""
    lines = text.strip().splitlines()
    steps = stages = 0
    verdict = lines[0] if lines else ""
    if lines and lines[0].startswith("# seed="):
        # bench: CSV rows m,n,stages,steps then the fit winner
        for line in lines[2:]:
            if line.startswith("# fit winner="):
                verdict = line[len("# fit winner="):].split(" constant=")[0]
            elif not line.startswith("#"):
                _, _, st, sp = line.split(",")
                stages += int(st)
                steps += int(sp)
    else:
        found = STEPS_RE.search(verdict)
        if found:
            stages, steps = int(found.group(1)), int(found.group(2))
        verdict = verdict.split(" mode=")[0].split(" method=")[0]
    return Outcome((code, verdict), (code, steps, stages), steps)


WORKLOADS = {w.name: w for w in (StageRewrite, Halving, Search, ColdCli)}
