"""The array stage engine against the Python stage loop.

Both engines are called directly, without the length switch of
``_run_stages``, on the same parsed tapes: their ``StepReport``s must agree
in every field, and so must the table reads they add to the rewriter.
The engine choice of ``_run_stages``, which hands a shrinking array tape
to the Python loop, is held to the Python loop's reports at the end.
"""

import itertools
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import autgrp
from autgrp import TapeWord, build_certificate, load_certificate, serialize_certificate
from autgrp import solvers as S
from autgrp import vectorized as V
from autgrp.errors import NonTermination, StageGuardExceeded, UnknownLetter

INVERSE = str.maketrans("abAB", "ABab")
GRIG_RELATORS = ("aa", "bb", "cc", "dd", "bcd", "cbd", "ad" * 4, "ac" * 8, "ab" * 16)


def run_engine(engine, rw, rules, tape):
    """(report or (error type, message), table reads added)."""
    before = rw.table_reads
    try:
        if engine == "python":
            result = S._drive(rw, S._ListTape(S._parse_tape(rw.closure.parse, tape)), rules)
        else:
            table = V.dense_table(rw)
            result = S._drive(rw, V._ArrayTape(table, *table.parse(tape)), rules)
    except NonTermination as exc:
        result = (type(exc), str(exc))
    return result, rw.table_reads - before


def assert_engines_agree(plan, tape):
    rw, rules = plan
    py = run_engine("python", rw, rules, tape)
    vec = run_engine("vector", rw, rules, tape)
    assert py == vec, tape
    return py[0]


def grig_trivial(rng, n, letters="abcd"):
    parts = []
    while sum(map(len, parts)) < n:
        g = "".join(rng.choices(letters, k=rng.randint(0, 6)))
        parts.append(g + rng.choice(GRIG_RELATORS) + g[::-1])
    return "".join(parts)


def free_trivial(rng, n, letters="abAB"):
    u = "".join(rng.choices(letters, k=n // 2))
    return u + u[::-1].translate(INVERSE)


def random_tape(rng, make, lengths, max_segments=3):
    return "#".join(make(rng, rng.choice(lengths)) for _ in range(rng.randint(1, max_segments)))


@pytest.fixture(scope="module")
def plans(grig, basilica, poly1, grig_cert, basilica_cert, basilica_weak_cert):
    return {
        "grig-contracting": S._plan(grig, "contracting", grig_cert),
        "grig-bounded": S._plan(grig, "bounded", grig_cert),
        "grig-polynomial": S._plan(grig, "polynomial", grig_cert, 0),
        "bas-bounded": S._plan(basilica, "bounded", basilica_cert),
        "bas-contracting": S._plan(basilica, "contracting", basilica_cert),
        "bas-polynomial": S._plan(basilica, "polynomial", basilica_cert, 0),
        "bas-weak": S._plan(basilica, "bounded", basilica_weak_cert),
        "poly1": S._plan(poly1, "polynomial", None, 1),
        # sections of up to three letters; basilica's branch maps generate a group of order 8
        "grig6-contracting": S._plan(grig, "contracting", build_certificate(grig, 6, 1, "item1")),
        "bas4-bounded": S._plan(basilica, "bounded", build_certificate(basilica, 4, 2, "item1")),
    }


def test_solver_corpora(plans):
    words = ("aa", "a", "cdb", "cd#b", "a#b#c", "ab" * 16, "ab" * 8, "adad", "bcd", "")
    for name in ("grig-contracting", "grig-bounded", "grig-polynomial"):
        for w in words:
            assert_engines_agree(plans[name], w)
    for w in ("aabBAA", "ABba", "ab", "ab" * 24, "aA"):
        for name in ("bas-bounded", "bas-contracting", "bas-weak"):
            assert_engines_agree(plans[name], w)
    for w in ("BbAa", "bb", "babA" * 8):
        assert_engines_agree(plans["poly1"], w)


def test_grigorchuk_exhaustive_short_words(plans):
    for n in range(6):
        for tup in itertools.product("abcde", repeat=n):
            w = "".join(tup)
            assert_engines_agree(plans["grig-contracting"], w)
            assert_engines_agree(plans["grig-bounded"], w)


def test_random_tapes_both_sides_of_the_cutoff(plans):
    cut = S._VECTOR_MIN_LETTERS
    lengths = (1, 3, 7, 30, cut // 2, cut - 1, cut, cut + 1, 3 * cut)
    rng = random.Random(20261018)
    results = []
    for _ in range(12):
        for name in ("grig-contracting", "grig-bounded", "grig-polynomial", "grig6-contracting"):
            tape = random_tape(rng, grig_trivial, lengths)
            results.append(assert_engines_agree(plans[name], tape))
            tape = random_tape(rng, lambda r, n: "".join(r.choices("abcde", k=n)), lengths)
            results.append(assert_engines_agree(plans[name], tape))
        for name in ("bas-bounded", "bas-contracting", "bas-polynomial", "bas-weak", "bas4-bounded"):
            tape = random_tape(rng, lambda r, n: free_trivial(r, n, "abABe"), lengths)
            results.append(assert_engines_agree(plans[name], tape))
            tape = random_tape(rng, lambda r, n: "".join(r.choices("abABe", k=n)), lengths)
            results.append(assert_engines_agree(plans[name], tape))
        tape = random_tape(rng, lambda r, n: free_trivial(r, n, "abABe"), lengths)
        results.append(assert_engines_agree(plans["poly1"], tape))
        tape = random_tape(rng, lambda r, n: "babA" * (n // 4 + 1), lengths)
        results.append(assert_engines_agree(plans["poly1"], tape))
    verdicts = {r.verdict for r in results if isinstance(r, S.StepReport)}
    assert verdicts == {True, False}


def test_input_forms(plans):
    rng = random.Random(7)
    w = grig_trivial(rng, 400, "abcde")
    rw, rules = plans["grig-bounded"]
    forms = (
        w,
        "#".join([w[:150], "", w[150:]]),
        " ".join(w),
        TapeWord([list(w[:200]), [], list(w[200:])]),
        list(w),
        [rw.closure.parse(ch)[0] for ch in w],
        np.array([rw.closure.parse(ch)[0] for ch in w]),
    )
    for tape in forms:
        assert_engines_agree(plans["grig-bounded"], tape)
        assert_engines_agree(plans["grig-contracting"], tape)
    # every form reaches the same tape
    table = V.dense_table(rw)
    letters = table.parse(w)[0]
    for tape in forms[2:3] + forms[4:]:
        assert np.array_equal(table.parse(tape)[0], letters)


def test_stage_caps_raise_alike(basilica, basilica_weak_cert, poly1):
    # aA cycles to bB and back under the weak certificate
    for w in ("aA", "aA" * 200):
        rw, rules = S._plan(basilica, "bounded", basilica_weak_cert)
        py, vec = (run_engine(e, rw, rules, w)[0] for e in ("python", "vector"))
        assert py == vec and py[0] is NonTermination
    rw, rules = S._plan(poly1, "polynomial", None, 1, stage_cap=1)
    for w in ("BbAa", "BbAa" * 80):
        py, vec = (run_engine(e, rw, rules, w)[0] for e in ("python", "vector"))
        assert py == vec and py[0] is StageGuardExceeded
        with pytest.raises(StageGuardExceeded, match=re.escape(py[1])):
            S.solve_polynomial(poly1, 1, w, stage_cap=1)


def test_unknown_letter_messages(grig, grig_cert, poly1):
    rw, rules = S._plan(grig, "bounded", grig_cert)
    for w in ("abz", "ab" * 200 + "z" + "c" * 10, "ab" * 200 + "#a b#", "ab" * 200 + "é"):
        messages = set()
        for solve in (
            lambda: S.solve_bounded(grig, grig_cert, w),
            lambda: S.solve_contracting(grig, grig_cert, w),
            lambda: run_engine("python", rw, rules, w),
            lambda: run_engine("vector", rw, rules, w),
        ):
            try:
                solve()
            except UnknownLetter as exc:
                messages.add(str(exc))
        if "z" in w or "é" in w:
            assert len(messages) == 1, messages
        else:
            assert not messages  # whitespace inside a segment still parses
    with pytest.raises(UnknownLetter, match="'z'"):
        S.solve_polynomial(poly1, 1, "babA" * 100 + "z")


def test_public_solvers_pick_the_engine_by_length(grig, grig_cert):
    rng = random.Random(3)
    for n in (8, S._VECTOR_MIN_LETTERS - 1, S._VECTOR_MIN_LETTERS, 700):
        w = grig_trivial(rng, n)[:n]
        rw, rules = S._plan(grig, "bounded", grig_cert)
        want = run_engine("python", rw, rules, w)[0]
        assert S.solve_bounded(grig, grig_cert, w) == want


def test_loaded_certificate_reports_as_built(grig, basilica):
    # a loaded table is its cell's walk, so each engine reports on it, table
    # reads included, exactly as on the certificate built for the cell
    rng = random.Random(5)
    for A, cell, letters, trivial in ((grig, (2, 1), "abcd", grig_trivial), (basilica, (3, 2), "abAB", free_trivial)):
        built = build_certificate(A, *cell, "item1")
        loaded = load_certificate(serialize_certificate(built), A)
        words = ["".join(rng.choices(letters, k=300)) for _ in range(3)] + [trivial(rng, 300) for _ in range(3)]
        for method in ("bounded", "contracting"):
            for w in words:
                for engine in ("python", "vector"):
                    want = run_engine(engine, *S._plan(A, method, built), w)
                    assert run_engine(engine, *S._plan(A, method, loaded), w) == want, (method, engine, w)


def test_dense_table_lives_on_its_certificate(basilica):
    # each fresh certificate builds its own table: nothing is keyed by id()
    w = "ab" * 200
    reports = []
    for block, power, mode in ((1, 1, "item2"), (3, 2, "item1"), (1, 1, "item2")):
        cert = build_certificate(basilica, block, power, mode)
        assert cert.dense_table is None
        reports.append(S.solve_bounded(basilica, cert, w))
        assert cert.dense_table.block == block
        del cert
    assert reports[0] == reports[2]
    assert reports[0].detail["block"] == 1 and reports[1].detail["block"] == 3


MALLOC_ENV = V._MALLOC_ENV + ("GLIBC_TUNABLES",)
ON_GLIBC = bool(getattr(os, "confstr", lambda name: None)("CS_GNU_LIBC_VERSION"))


@pytest.mark.skipif(not ON_GLIBC, reason="malloc thresholds are set on glibc only")
def test_repeated_long_solves_reuse_freed_arrays():
    # every stage frees the previous tape; once a word has been solved,
    # solving it again must not take fresh pages from the kernel
    code = (
        "import resource\n"
        "from autgrp import catalog, solve_polynomial\n"
        "A = catalog.get('poly1')\n"
        "w = 'babA' * 2**11\n"
        "for _ in range(3): solve_polynomial(A, 1, w)\n"
        "f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5): solve_polynomial(A, 1, w)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)\n"
    )
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # about 4000 with glibc's dynamic thresholds
    assert int(done.stdout) < 200


def test_malloc_settings_of_the_environment_win(monkeypatch):
    calls = []

    class FakeLibc:
        def mallopt(self, param, value):
            calls.append((param, value))

    monkeypatch.setattr(V.ctypes, "CDLL", lambda name: FakeLibc())
    monkeypatch.setattr(V.os, "confstr", lambda name: "glibc 2.36", raising=False)
    for var in MALLOC_ENV:
        monkeypatch.delenv(var, raising=False)
    for var, value in (("MALLOC_TRIM_THRESHOLD_", "0"), ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")):
        monkeypatch.setenv(var, value)
        V._keep_freed_arrays()
        monkeypatch.delenv(var)
    assert calls == []
    V._keep_freed_arrays()
    assert calls == [(V._M_TRIM_THRESHOLD, 64 << 20), (V._M_MMAP_THRESHOLD, 32 << 20)]


def test_prefix_parity_across_byte_boundaries():
    rng = np.random.default_rng(7)
    for n in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000):
        flags = rng.integers(0, 2, n).astype(np.uint8)
        assert V._prefix_parity(flags).tolist() == np.bitwise_xor.accumulate(flags).tolist(), n


def units_reference(table, letters, lens):
    """Per segment: each full block's code, its first letter most
    significant, then each tail letter's code."""
    L, n = table.block, table.n_states
    codes, units = [], []
    start = 0
    for length in lens.tolist():
        seg = letters[start : start + length].tolist()
        start += length
        cut = length // L * L
        for j in range(0, cut, L):
            code = 0
            for s in seg[j : j + L]:
                code = code * n + s
            codes.append(code)
        codes += [table.n_codes + s for s in seg[cut:]]
        units.append(length // L + length - cut)
    return codes, units


@pytest.mark.parametrize("cert_name", ["grig_cert", "basilica_cert", "basilica_weak_cert"])
def test_unit_cut_matches_per_segment_reference(cert_name, request):
    table = V.dense_table(request.getfixturevalue(cert_name))
    L = table.block
    rng = np.random.default_rng(11)
    shapes = [
        [L],  # one segment of exactly a block
        [L] * 5,  # segments of exactly L letters
        [L + r for r in range(L)] * 2,  # every tail residue mod L
        [3 * L + L - 1, L, 2 * L + 1],  # a tail at the very end of the tape
        [4 * L + 1],  # one segment ending in a tail
    ]
    for _ in range(40):
        shapes.append([L * int(rng.integers(1, 12)) + int(rng.integers(0, L)) for _ in range(int(rng.integers(1, 9)))])
    for shape in shapes:
        lens = np.array(shape, dtype=np.int32)
        letters = rng.integers(0, table.n_states, int(lens.sum())).astype(table.dtype)
        code, units = table.units(letters, lens)
        want_code, want_units = units_reference(table, letters, lens)
        assert code.dtype == table.cell_dtype, shape
        assert code.tolist() == want_code, shape
        assert units.dtype == lens.dtype and units.tolist() == want_units, shape


# the reset rule's literal tables and certificate cells, three of them with
# sections of two or three letters
SPELLING_TABLES = {
    "poly1-reset": ("poly1", None),
    "basilica-reset": ("basilica", None),
    "grigorchuk-reset": ("grigorchuk", None),
    "adding-reset": ("adding", None),
    "grig-2-1": ("grigorchuk", (2, 1, "item1")),
    "grig-6-1": ("grigorchuk", (6, 1, "item1")),
    "bas-1-1": ("basilica", (1, 1, "item2")),
    "bas-3-2": ("basilica", (3, 2, "item1")),
    "bas-4-2": ("basilica", (4, 2, "item1")),
}


@pytest.mark.parametrize("case", SPELLING_TABLES)
def test_every_cell_spells_its_walk(case):
    # a block cell spells its row's section, a tail cell its letter's
    # section letter, dropped when stripped and the identity
    name, cell = SPELLING_TABLES[case]
    A = autgrp.catalog.get(name)
    rw = S._literal_sections(A) if cell is None else build_certificate(A, *cell)
    table = V.dense_table(rw)
    n, L, R = table.n_states, table.block, table.branches
    seck, identity = rw._ctx.seck, rw.automaton.identity
    for strip in (False, True):
        for c in range((table.n_codes + n) * R):
            code, x = divmod(c, R)
            if code < table.n_codes:
                block = tuple(code // n ** (L - 1 - d) % n for d in range(L))
                want = list(rw._row(block)[x][0])
            else:
                sec = seck[code - table.n_codes][x]
                want = [] if strip and sec == identity else [sec]
            got = table.spell(np.array([c]), np.array([0]), strip)[0]
            assert got.tolist() == want, (c, strip)


# cells above DEFAULT_TABLE_BUDGET: (5^8 + 5) * 4 = 1,562,520 cells each
@pytest.fixture(scope="module")
def indexed_plans(grig, basilica):
    bas, gri = build_certificate(basilica, 8, 2, "item1"), build_certificate(grig, 8, 2, "item1")
    plans = {}
    for key, A, cert in (("bas8", basilica, bas), ("grig8", grig, gri)):
        plans[f"{key}-bounded"] = S._plan(A, "bounded", cert)
        plans[f"{key}-contracting"] = S._plan(A, "contracting", cert)
        plans[f"{key}-polynomial"] = S._plan(A, "polynomial", cert, 0)
    return plans


def indexed_words(seed):
    rng = random.Random(seed)
    lengths = (300, 700, 2000)
    words = {"bas8": [], "grig8": []}
    for n in lengths:
        words["bas8"] += [free_trivial(rng, n), "".join(rng.choices("abAB", k=n)), free_trivial(rng, n, "abABe")]
        words["grig8"] += [grig_trivial(rng, n)[:n], grig_trivial(rng, n), "".join(rng.choices("abcd", k=n))]
    words["bas8"].append("ab" * 600)
    words["grig8"].append(("ab" * 16 + "ad" * 4 + "ac" * 8) * 30)
    return words


def test_tables_above_the_budget_are_indexed(indexed_plans):
    for rw, _ in indexed_plans.values():
        table = V.dense_table(rw)
        assert table.n_codes * table.branches > autgrp.contraction.DEFAULT_TABLE_BUDGET
        assert table.keys is not None and len(table.keys) < table.n_codes


def test_engines_agree_above_the_table_budget(indexed_plans):
    verdicts = set()
    for name, plan in indexed_plans.items():
        for w in indexed_words(20261021)[name.split("-")[0]]:
            result = assert_engines_agree(plan, w)
            verdicts.add(result.verdict)
    assert verdicts == {True, False}


def test_handoff_ledger_above_the_table_budget(indexed_plans, monkeypatch):
    # the public path starts on the indexed table and finishes on the lists
    passes = []
    for engine in (S._ListTape, V._ArrayTape):
        spy = lambda self, rw, f=engine.drop_short: passes.append(type(self)) or f(self, rw)
        monkeypatch.setattr(engine, "drop_short", spy)
    rng = random.Random(11)
    for name, w in (("bas8-bounded", free_trivial(rng, 1000)), ("grig8-contracting", grig_trivial(rng, 4096))):
        rw, rules = indexed_plans[name]
        del passes[:]
        before = rw.table_reads
        handed = S._run_stages(rw, rules, w)
        reads = rw.table_reads - before
        assert passes[0] is V._ArrayTape and passes[-1] is S._ListTape, name
        want, want_reads = run_engine("python", rw, rules, w)
        assert handed.verdict and reads == want_reads
        assert len(handed.ledger) == len(want.ledger)
        for k, (got, exp) in enumerate(zip(handed.ledger, want.ledger)):
            assert got == exp, (name, k)
        assert handed == want


def test_filled_cells_spell_their_walk(indexed_plans):
    # after solves, every row the table holds spells what the certificate's
    # walk gives its block, or its tail letter's section letter
    for name in ("bas8-bounded", "grig8-bounded"):
        rw, rules = indexed_plans[name]
        table = V.dense_table(rw)
        for w in indexed_words(5)[name.split("-")[0]]:
            S._run_stages(rw, rules, w)
        n, L, R = table.n_states, table.block, table.branches
        seck, identity = rw._ctx.seck, rw.automaton.identity
        assert len(table.keys) == table.held > n and list(table.keys) == sorted(set(table.keys.tolist()))
        assert sorted(table.order.tolist()) == list(range(table.held))
        assert table.spelled[0].shape[1] == table.maxlen
        for row, code in zip(table.order.tolist(), table.keys.tolist()):
            for x in range(R):
                for strip in (False, True):
                    if code < table.n_codes:
                        block = tuple(code // n ** (L - 1 - d) % n for d in range(L))
                        want = list(rw._row(block)[x][0])
                    else:
                        sec = seck[code - table.n_codes][x]
                        want = [] if strip and sec == identity else [sec]
                    got = table.spell(np.array([row * R + x]), np.array([0]), strip)[0]
                    assert got.tolist() == want, (name, code, x, strip)
            if code < table.n_codes:
                ends = rw.sections(list(block), strip=False)[1]
                assert table.image_t[:, table.unit_gid[row]].tolist() == ends, (name, code)


def test_a_second_solve_fills_no_row(basilica, monkeypatch):
    fills, grows = [], []
    fill, grown = V.DenseTable._fill, V._grown
    monkeypatch.setattr(V.DenseTable, "_fill", lambda self, codes: fills.append(len(codes)) or fill(self, codes))
    monkeypatch.setattr(V, "_grown", lambda held, n: grows.append(n) or grown(held, n))
    rw, rules = S._plan(basilica, "bounded", build_certificate(basilica, 8, 2, "item1"))
    w = free_trivial(random.Random(3), 3000)
    first = S._run_stages(rw, rules, w)
    table = V.dense_table(rw)
    held = len(table.keys)
    assert fills and held == table.held == table.n_states + sum(fills)
    # appended rows copy the held ones only when the capacity doubles
    assert len(grows) <= 3 * len(fills) and len(table.unit_gid) < 2 * held
    assert all(b >= 2 * a for a, b in zip(grows[::3], grows[3::3]))
    del fills[:]
    assert S._run_stages(rw, rules, w) == first
    assert fills == [] and len(table.keys) == held


def test_cells_past_int32_get_no_table(grig):
    # grigorchuk's (12, 1) cell has 5^12 * 2 unit cells, which fit int32,
    # and its (13, 1) cell 5^13 * 2, which do not: that certificate gets no
    # table, allocates nothing large, and solves on the Python tape
    import tracemalloc

    rng = random.Random(9)
    w = grig_trivial(rng, 1000)
    small = build_certificate(grig, 12, 1, "item1")
    assert V.dense_table(small).keys is not None
    cert = build_certificate(grig, 13, 1, "item1")
    assert (cert.ball.size, cert.branches) == (2259, 2)
    tracemalloc.start()
    try:
        assert V.dense_table(cert) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10 and cert.dense_table is False
    for c in (small, cert):
        rw, rules = S._plan(grig, "bounded", c)
        assert S._run_stages(rw, rules, w) == run_engine("python", rw, rules, w)[0]


def test_long_solves_finish_on_the_python_tape(grig, grig_cert, monkeypatch):
    # a trivial word whose tape shrinks under the cut: its later stages run
    # on the lists, and the report and table reads are the Python tape's
    rng = random.Random(7)
    w = grig_trivial(rng, 4096)
    sizes = []
    drop_short = V._ArrayTape.drop_short

    def spy(self, rw):
        sizes.append(self.letters)
        return drop_short(self, rw)

    monkeypatch.setattr(V._ArrayTape, "drop_short", spy)
    for method in ("bounded", "contracting"):
        rw, rules = S._plan(grig, method, grig_cert)
        want = run_engine("python", rw, rules, w)
        sizes.clear()
        before = rw.table_reads
        got = S._run_stages(rw, rules, w)
        assert (got, rw.table_reads - before) == want
        assert got.verdict and sizes[0] == len(w)
        assert min(sizes) >= S._VECTOR_MIN_LETTERS
        assert len(sizes) < got.stages  # some stages ran on the lists
        # the pure array engine still runs every stage on its own tape
        sizes.clear()
        assert run_engine("vector", rw, rules, w) == want
        assert len(sizes) == got.stages and min(sizes) < S._VECTOR_MIN_LETTERS


def test_a_short_tape_that_grows_stays_off_numpy():
    # the handoff goes one way: a poly1 tape that starts under the cut and
    # grows past it stays on the lists, so numpy is never loaded
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys\n"
        "from autgrp import catalog, solve_polynomial\n"
        "from autgrp.solvers import _VECTOR_MIN_LETTERS\n"
        "rep = solve_polynomial(catalog.get('poly1'), 1, 'babA' * 60)\n"
        "print(rep.stage_tape[0] < _VECTOR_MIN_LETTERS < max(rep.stage_tape), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "False"]
