"""One SHA-256 over the CLI's answers to a fixed set of calls, to compare checkouts.

Usage: python3 tools/call_digest.py <checkout> <workdir>

Builds the three benchmark batteries at seed 5 with the checkout's
``perfbench/gen.py``, writing their inputs under ``<workdir>``, and adds
``corpus --json --n 12`` at seeds 0-59, with and without ``--inject-fault``:
370 calls.  Then come ``check``, ``efficient``, ``maximize`` and ``refine``
on the checkout's ``tests/data/tolerant_power.json``, copied under
``<workdir>``, at its own tolerance and at ``--tolerance`` 0.5 and 1: its
values are small integers held as floats.  Then come ``efficient``,
``maximize --downset`` and ``refine --sets`` on the checkout's
``tests/data/product3.json`` and on a copy whose ``values`` keys are joined
with ", " (both under ``<workdir>/rekeyed``): 388 calls.  Then come
``efficient``, ``maximize --downset`` (members and generators) and
``refine --sets`` on a copy of ``product3.json`` whose second factor lists
its elements top first, so that its element order is no linear extension
(under ``<workdir>/reordered``): 392 calls.  Then come ``check``,
``efficient`` and ``maximize --downset`` on a copy of ``product3.json``
whose ``values`` keys are shuffled, and on a table over a plain poset with
numeric ids, whose every key the loader reads by ``locate`` (both under
``<workdir>/keypaths``): 398 calls.  Then come ``check``,
``efficient`` and ``maximize --downset`` on a table over a plain poset
whose ids need JSON escapes (a non-ASCII letter, a quote, a backslash and
a control character; under ``<workdir>/escaped``): 401 calls.  Then
come ``check``, ``efficient`` and ``maximize --downset`` on the checkout's
``tests/data/classical.json`` (a closed form), ``min_grid.json`` (its
table) and the four ``mix_*.json`` min-products of closed forms, copied
under ``<workdir>/forms``, so that the tables ``tabulate`` and
``min_product`` make are covered: 419 calls.  Then come ``check``,
``efficient`` and ``maximize --downset`` on a copy of ``product3.json``
whose first factor lists a redundant cover, so that its covers are no
chain listing and take the general closure (under ``<workdir>/redundant``):
422 calls.  Then come ``check``, ``efficient`` and ``maximize --downset``
on a ``restrict`` of ``product3.json`` by the generators of
``product3_generators.json``, given inline, and on two ``affine``
transforms of ``min_grid.json``: a = 3/2, b = -1/3 on the exact scale and
a = 0.5, b = 0, which is tolerant (under ``<workdir>/combinators``), so
that the tables ``restrict`` and ``affine_transform`` make are covered:
431 calls.  Last come ``check``, ``efficient`` and ``maximize --downset``
on the N = 40 ladder (0 below 1, covers i < i+2) listed top first, a
passing table and a failing one (under ``<workdir>/ladder``), so that the
least and greatest walks step: 437 calls.  Every call runs
through the checkout's ``qleontief.cli.main`` in this one process.  Prints
the number of calls and one SHA-256 over each call's argv, exit code, stdout
and stderr.  Reports echo their input paths, so two checkouts compare equal
only when both runs use the same ``<workdir>``.  Exits 1 when a re-keyed,
shuffled or redundantly covered call's answer differs from the canonical
call's by more than the input path.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys

WORKLOADS = ("check-battery", "product-maximize", "corpus-sweep")


TOLERANT_INPUTS = {
    "downset.json": {"generators": [[2.0, 3.0], [1.0, 4.0]]},
    "axis1.json": {"members": [0.0, 1.0, 2.0]},
    "axis2.json": {"members": [0.0, 1.0, 2.0, 3.0]},
}


def tolerant_calls(checkout: str, workdir: str):
    """The calls on the tolerant power form, with their inputs written under
    ``<workdir>/tolerant``."""
    folder = os.path.join(workdir, "tolerant")
    os.makedirs(folder, exist_ok=True)
    with open(os.path.join(checkout, "tests", "data", "tolerant_power.json")) as src:
        inputs = dict(TOLERANT_INPUTS, **{"tolerant_power.json": json.load(src)})
    for name, obj in inputs.items():
        with open(os.path.join(folder, name), "w") as out:
            json.dump(obj, out)
    form, downset, axes = (os.path.join(folder, n) for n in ("tolerant_power.json", "downset.json", "axis"))
    for flags in ([], ["--tolerance", "0.5"], ["--tolerance", "1"]):
        yield ["check", "--json", *flags, form]
        yield ["efficient", "--json", *flags, form]
        yield ["maximize", "--json", *flags, form, "--downset", downset]
        yield ["refine", "--json", *flags, form, "--sets", axes + "1.json", axes + "2.json"]


def rekeyed_calls(checkout: str, workdir: str):
    """Pairs of calls on ``product3.json`` as it is and re-keyed with ", ",
    with their inputs written under ``<workdir>/rekeyed``, and the two
    table paths."""
    folder, data = os.path.join(workdir, "rekeyed"), os.path.join(checkout, "tests", "data")
    os.makedirs(folder, exist_ok=True)
    names = ["product3_members.json", *(f"product3_axis{k}.json" for k in (1, 2, 3))]
    inputs = {}
    for name in ["product3.json", *names]:
        with open(os.path.join(data, name)) as src:
            inputs[name] = json.load(src)
    table = inputs["product3.json"]
    inputs["product3_spaced.json"] = dict(table, values={
        key.replace(",", ", "): v for key, v in table["values"].items()})
    for name, obj in inputs.items():
        with open(os.path.join(folder, name), "w") as out:
            json.dump(obj, out)
    members, *axes = (os.path.join(folder, n) for n in names)
    tables = [os.path.join(folder, n) for n in ("product3.json", "product3_spaced.json")]
    for command, *rest in (["efficient"], ["maximize", "--downset", members], ["refine", "--sets", *axes]):
        yield [[command, "--json", t, *rest] for t in tables], tables


def reordered_calls(checkout: str, workdir: str):
    """The calls on ``product3.json`` with its second factor listed top
    first, with their inputs written under ``<workdir>/reordered``."""
    folder, data = os.path.join(workdir, "reordered"), os.path.join(checkout, "tests", "data")
    os.makedirs(folder, exist_ok=True)
    names = ["product3.json", "product3_members.json", "product3_generators.json",
             *(f"product3_axis{k}.json" for k in (1, 2, 3))]
    inputs = {}
    for name in names:
        with open(os.path.join(data, name)) as src:
            inputs[name] = json.load(src)
    factor = inputs["product3.json"]["poset"]["product"][1]
    factor["elements"] = factor["elements"][::-1]
    for name, obj in inputs.items():
        with open(os.path.join(folder, name), "w") as out:
            json.dump(obj, out)
    table, members, generators, *axes = (os.path.join(folder, n) for n in names)
    yield ["efficient", "--json", table]
    yield ["maximize", "--json", table, "--downset", members]
    yield ["maximize", "--json", table, "--downset", generators]
    yield ["refine", "--json", table, "--sets", *axes]


NUMERIC_INPUTS = {
    "numeric.json": {
        "poset": {"elements": [0, 1, 2, 3, 4], "covers": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4]]},
        "values": {"0": "0", "1": "1", "2": "0", "3": "1", "4": "1"},
    },
    "numeric_downset.json": {"generators": [2, 3]},
}


def key_path_calls(checkout: str, workdir: str):
    """The calls on a key-shuffled copy of ``product3.json`` and on the
    numeric-id table, each with the call on ``product3.json`` itself that
    must answer alike (None for the numeric table), with their inputs written
    under ``<workdir>/keypaths``."""
    folder, data = os.path.join(workdir, "keypaths"), os.path.join(checkout, "tests", "data")
    os.makedirs(folder, exist_ok=True)
    inputs = dict(NUMERIC_INPUTS)
    for name in ("product3.json", "product3_members.json"):
        with open(os.path.join(data, name)) as src:
            inputs[name] = json.load(src)
    items = list(inputs["product3.json"]["values"].items())
    random.Random(0).shuffle(items)
    inputs["product3_shuffled.json"] = dict(inputs["product3.json"], values=dict(items))
    for name, obj in inputs.items():
        with open(os.path.join(folder, name), "w") as out:
            json.dump(obj, out)
    table, shuffled, members, numeric, downset = (os.path.join(folder, n) for n in (
        "product3.json", "product3_shuffled.json", "product3_members.json", "numeric.json", "numeric_downset.json"))
    for t, d, canonical in ((shuffled, members, table), (numeric, downset, None)):
        for command, *rest in (["check"], ["efficient"], ["maximize", "--downset", d]):
            yield [command, "--json", t, *rest], canonical and [command, "--json", canonical, *rest]


BOTTOM, LEFT, RIGHT, TOP = "\u00e9t\u00e9", 'say "hi"', "back\\slash", "tab\there"
ESCAPED_INPUTS = {
    "escaped.json": {
        "poset": {"elements": [BOTTOM, LEFT, RIGHT, TOP],
                  "covers": [[BOTTOM, LEFT], [BOTTOM, RIGHT], [LEFT, TOP], [RIGHT, TOP]]},
        "values": {BOTTOM: "0", LEFT: "1", RIGHT: "0", TOP: "2"},
    },
    "escaped_downset.json": {"generators": [LEFT, RIGHT]},
}


def escaped_calls(workdir: str):
    """The calls on the table whose ids need JSON escapes, with their inputs
    written under ``<workdir>/escaped``."""
    folder = os.path.join(workdir, "escaped")
    os.makedirs(folder, exist_ok=True)
    for name, obj in ESCAPED_INPUTS.items():
        with open(os.path.join(folder, name), "w", encoding="utf-8") as out:
            json.dump(obj, out)
    table, downset = (os.path.join(folder, n) for n in ESCAPED_INPUTS)
    yield ["check", "--json", table]
    yield ["efficient", "--json", table]
    yield ["maximize", "--json", table, "--downset", downset]


FORMS = {  # each table with the down-set file its ``maximize`` call reads
    "classical.json": "classical_generators.json",
    "min_grid.json": "mix_downset.json",
    **{f"mix_{mix}.json": "mix_downset.json" for mix in ("float_square", "square_float", "square_line", "square_root")},
}


def form_calls(checkout: str, workdir: str):
    """The calls on the closed forms and min-products of ``tests/data``,
    with their inputs copied under ``<workdir>/forms``."""
    folder, data = os.path.join(workdir, "forms"), os.path.join(checkout, "tests", "data")
    os.makedirs(folder, exist_ok=True)
    for name in {*FORMS, *FORMS.values()}:
        with open(os.path.join(data, name)) as src, open(os.path.join(folder, name), "w") as out:
            out.write(src.read())
    for table, downset in FORMS.items():
        table, downset = os.path.join(folder, table), os.path.join(folder, downset)
        yield ["check", "--json", table]
        yield ["efficient", "--json", table]
        yield ["maximize", "--json", table, "--downset", downset]


def redundant_cover_calls(checkout: str, workdir: str):
    """The calls on a copy of ``product3.json`` whose first factor lists the
    redundant cover ("0", "2"), each with the call on ``product3.json``
    itself that must answer alike, with their inputs written under
    ``<workdir>/redundant``."""
    folder, data = os.path.join(workdir, "redundant"), os.path.join(checkout, "tests", "data")
    os.makedirs(folder, exist_ok=True)
    inputs = {}
    for name in ("product3.json", "product3_members.json"):
        with open(os.path.join(data, name)) as src:
            inputs[name] = json.load(src)
    table = copy.deepcopy(inputs["product3.json"])
    table["poset"]["product"][0]["covers"].append(["0", "2"])
    inputs["product3_redundant.json"] = table
    for name, obj in inputs.items():
        with open(os.path.join(folder, name), "w") as out:
            json.dump(obj, out)
    canonical, members, redundant = (os.path.join(folder, n) for n in inputs)
    for command, *rest in (["check"], ["efficient"], ["maximize", "--downset", members]):
        yield [command, "--json", redundant, *rest], [command, "--json", canonical, *rest]


def combinator_calls(checkout: str, workdir: str):
    """The calls on a restriction of ``product3.json`` and on two affine
    transforms of ``min_grid.json``, with their inputs written under
    ``<workdir>/combinators``."""
    folder, data = os.path.join(workdir, "combinators"), os.path.join(checkout, "tests", "data")
    os.makedirs(folder, exist_ok=True)
    inputs = {}
    for name in ("product3.json", "product3_generators.json", "min_grid.json", "mix_downset.json"):
        with open(os.path.join(data, name)) as src:
            inputs[name] = json.load(src)
    inputs["restrict.json"] = {"type": "restrict", "base": "product3.json",
                               "downset": inputs["product3_generators.json"]}
    inputs["affine_exact.json"] = {"type": "affine", "base": "min_grid.json", "a": "3/2", "b": "-1/3"}
    inputs["affine_tolerant.json"] = {"type": "affine", "base": "min_grid.json", "a": 0.5, "b": 0}
    for name, obj in inputs.items():
        with open(os.path.join(folder, name), "w") as out:
            json.dump(obj, out)
    for table, downset in (("restrict.json", "product3_generators.json"), ("affine_exact.json", "mix_downset.json"),
                           ("affine_tolerant.json", "mix_downset.json")):
        table, downset = os.path.join(folder, table), os.path.join(folder, downset)
        yield ["check", "--json", table]
        yield ["efficient", "--json", table]
        yield ["maximize", "--json", table, "--downset", downset]


LADDER = [str(i) for i in range(40)]
LADDER_POSET = {"elements": LADDER[::-1],
                "covers": [["0", "1"]] + [[a, b] for a, b in zip(LADDER, LADDER[2:])]}
LADDER_INPUTS = {
    "ladder.json": {"poset": LADDER_POSET, "values": {e: str(0 if i % 2 else i // 2) for i, e in enumerate(LADDER)}},
    "ladder_failing.json": {"poset": LADDER_POSET, "values": {e: str(i // 2) for i, e in enumerate(LADDER)}},
    "ladder_downset.json": {"generators": ["20", "31"]},
}


def ladder_calls(workdir: str):
    """The calls on the N = 40 ladder listed top first, so that the least
    and greatest walks step, with their inputs written under
    ``<workdir>/ladder``: valued i/2 at an even i and 0 at an odd one, which
    passes, and valued floor(i/2), whose level set at 1 has no least element."""
    folder = os.path.join(workdir, "ladder")
    os.makedirs(folder, exist_ok=True)
    for name, obj in LADDER_INPUTS.items():
        with open(os.path.join(folder, name), "w") as out:
            json.dump(obj, out)
    passing, failing, downset = (os.path.join(folder, n) for n in LADDER_INPUTS)
    for table in (passing, failing):
        yield ["check", "--json", table]
        yield ["efficient", "--json", table]
        yield ["maximize", "--json", table, "--downset", downset]


def calls(gen, checkout: str, workdir: str):
    for workload in WORKLOADS:
        for call in gen.build(workload, 5, os.path.join(workdir, workload)):
            yield call.argv
    for seed in range(60):
        argv = ["corpus", "--json", "--n", "12", "--seed", str(seed)]
        yield argv
        yield argv + ["--inject-fault"]
    yield from tolerant_calls(checkout, workdir)


def run(cli, argv):
    """(exit code, stdout, stderr) of one call; a crash is recorded as its
    exception in place of an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash is part of the answer
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout, workdir = (os.path.abspath(a) for a in args)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import gen
    import qleontief.cli as cli

    digest = hashlib.sha256()
    count = 0

    def answer(call):
        nonlocal count
        got = run(cli, call)
        digest.update(json.dumps([call, *got]).encode("utf-8"))
        count += 1
        return got

    for call in calls(gen, checkout, workdir):
        answer(call)
    differ = []
    for pair, (canonical, spaced) in rekeyed_calls(checkout, workdir):
        (code, out, err), got = map(answer, pair)
        if got != (code, out.replace(canonical, spaced), err.replace(canonical, spaced)):
            differ.append(pair[1])
    for call in reordered_calls(checkout, workdir):
        answer(call)
    for call, canonical in key_path_calls(checkout, workdir):
        code, out, err = answer(call)
        if canonical and run(cli, canonical) != (code, out.replace(call[2], canonical[2]),
                                                 err.replace(call[2], canonical[2])):
            differ.append(call)
    for call in escaped_calls(workdir):
        answer(call)
    for call in form_calls(checkout, workdir):
        answer(call)
    for call, canonical in redundant_cover_calls(checkout, workdir):
        code, out, err = answer(call)
        if run(cli, canonical) != (code, out.replace(call[2], canonical[2]), err.replace(call[2], canonical[2])):
            differ.append(call)
    for call in combinator_calls(checkout, workdir):
        answer(call)
    for call in ladder_calls(workdir):
        answer(call)
    print(count, digest.hexdigest())
    for call in differ:
        print(f"call differs from its canonical one: {call}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
