import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwkit
from cwkit.classifier import display_name
from cwkit.cli import resolve_graph, run
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.errors import InputError
from cwkit.graphs import EDGE_LIST_CAP, to_edge_list, to_graph6
from cwkit.isomorphism import is_isomorphic
from cwkit.names import graph_named
from cwkit.witnesses import FAMILIES, p6_diamond_base


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_resolve_name_graph6_and_file(tmp_path):
    assert resolve_graph("P4").n == 4
    g = graph_named("C5")
    assert resolve_graph(to_graph6(g)) == g
    f = tmp_path / "g.edges"
    f.write_text("3 2\n0 1\n1 2\n")
    assert is_isomorphic(resolve_graph(str(f)), graph_named("P3"))
    f6 = tmp_path / "g.g6"
    f6.write_text(to_graph6(g) + "\n")
    assert resolve_graph(str(f6)) == g
    with pytest.raises(InputError):
        resolve_graph("definitely not a graph ((")


def test_printed_graph6_names_are_accepted():
    # an unnamed graph is printed as graph6:<text>, and that text is read
    # back as the same graph
    bare = invoke("classify", "single", "F?AZO")
    assert bare[0] == 0 and "matched=graph6:F?AZO" in bare[1]
    assert invoke("classify", "single", "graph6:F?AZO") == bare
    printed = 0
    for g in nonisomorphic_graphs_upto(7):
        name = display_name(g)
        if name.startswith("graph6:"):
            printed += 1
            assert is_isomorphic(resolve_graph(name), g), name
    assert printed == 1002


def test_classify_pair_output():
    code, out, _ = invoke("classify", "pair", "3P1", "co(S_1_2_3)")
    assert code == 0
    assert out.startswith("status=Open rule=OPEN1.7")


def test_classify_pair_json():
    code, out, _ = invoke("classify", "pair", "K1_3", "co(K1_3)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Bounded" and doc["rule"] == "B7"


def test_classify_single_and_family():
    code, out, _ = invoke("classify", "single", "2P2")
    assert code == 0 and "Unbounded" in out
    code, out, _ = invoke("classify", "family", "--relation", "topminor", "K1_4")
    assert code == 0 and "Unbounded" in out


def test_colouring_pair():
    code, out, _ = invoke("colouring", "pair", "P4", "K13")
    assert code == 0 and "Polynomial" in out


def test_witness_certify_and_files(tmp_path):
    out_file = tmp_path / "w.txt"
    part_file = tmp_path / "w.part"
    code, out, _ = invoke(
        "witness", "thm4G", "4", "--certify",
        "--out", str(out_file), "--format", "edges",
        "--out-partition", str(part_file),
    )
    assert code == 0
    assert "bound=4" in out
    assert out_file.read_text().splitlines()[0] == "56 112"
    from cwkit.certificate import parse_partition

    assert parse_partition(part_file.read_text()).n == 4


def test_witness_verify_free():
    code, out, _ = invoke("witness", "thm5G", "2", "--verify-free")
    assert code == 0 and "verified free" in out


def test_witness_graph6_output(tmp_path):
    out_file = tmp_path / "w.g6"
    code, out, _ = invoke("witness", "wall", "2", "--out", str(out_file))
    assert code == 0
    from cwkit.graphs import from_graph6
    from cwkit.witnesses import wall

    assert from_graph6(out_file.read_text()) == wall(2)


def test_unwritable_output_paths_are_input_errors(tmp_path):
    # a missing directory and a directory cannot be opened for writing; the
    # family line is printed before the write fails, and no file is made
    missing = tmp_path / "missing-dir" / "x.g6"
    for flag in ("--out", "--out-partition"):
        for path in (missing, tmp_path):
            code, out, err = invoke("witness", "grid", "3", flag, str(path))
            assert code == 2 and out.startswith("family=grid") and "cannot write" in err, (flag, path)
            assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_witness_bad_params():
    code, _, err = invoke("witness", "wall", "1")
    assert code == 2
    code, _, err = invoke("witness", "wall", "2", "3")
    assert code == 2
    code, _, err = invoke("witness", "wall", "2", "--certify")
    assert code == 2  # walls carry no partition


def test_cw_exact_and_eval(tmp_path):
    code, out, _ = invoke("cw", "exact", "P4")
    assert code == 0
    assert out.splitlines()[0] == "cliquewidth=3"
    assert out.splitlines()[1].startswith("witness=")
    f = tmp_path / "expr.cwx"
    f.write_text("# builds an edge\neta(2,1; 2(b)+1(a))\n")
    code, out, _ = invoke("cw", "eval", str(f))
    assert code == 0 and "width=2" in out and "n=2 m=1" in out


def test_unreadable_files_are_input_errors(tmp_path):
    # A directory cannot be opened, and a file that is not UTF-8 cannot be
    # read as text; both are input errors, for graphs and for expressions.
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (str(tmp_path), str(binary)):
        for argv in (("classify", "single", path), ("cw", "eval", path)):
            code, out, err = invoke(*argv)
            assert code == 2 and out == "" and "cannot read" in err, argv


def test_cw_exact_capacity():
    code, _, err = invoke("cw", "exact", "grid(3)")
    assert code == 3 and "capped" in err
    code, out, _ = invoke("cw", "exact", "grid(3)", "--max-n", "9")
    assert code == 0


def test_cw_exact_cap_below_one_is_an_input_error():
    for cap in ("0", "-3"):
        code, out, err = invoke("cw", "exact", "P4", "--max-n", cap)
        assert code == 2 and out == "" and f"the vertex cap must be at least 1, got {cap}" in err


def test_free_check_exit_codes():
    code, out, _ = invoke("free-check", "thm-unused", "--patterns", "P4")
    assert code == 2  # unresolvable graph argument
    code, out, _ = invoke("free-check", "C5", "--patterns", "P4")
    assert code == 1 and out.startswith("free=no pattern=P4")
    code, out, _ = invoke("free-check", "K3", "--patterns", "P3")
    assert code == 0 and out.strip() == "free=yes"


def test_parse_error_exit_code():
    code, _, err = invoke("classify", "pair", "P4", "S_3_2_1")
    assert code == 2 and "error" in err


# Good and malformed names and graph6 strings; "." is a directory and
# "missing.g6" a file that does not exist.
_ATOMS = st.one_of(
    st.sampled_from(
        ["P4", "K1_3", "paw", "gem", "S_1_2_3", "co(2P1+P3)", "Dhc", "?", "A_", "D", "~~", "D a",
         "Dh\u00e9", "co(", "P4+", "S_1_2", "((", "", ".", "missing.g6"]
    ),
    st.builds("{}{}".format, st.sampled_from(["P", "K", "C", "2P", "K1_", "co(P"]), st.integers(-3, 6)),
)
_GRAPHS = st.one_of(_ATOMS, st.builds("{}+{}".format, _ATOMS, _ATOMS), st.builds("co({})".format, _ATOMS))
_INTS = st.integers(-3, 4).map(str)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["classify", "colouring", "cw", "free-check", "witness", "scan"]))
    graphs = lambda count: [draw(_GRAPHS) for _ in range(count)]
    if command == "classify":
        mode = draw(st.sampled_from(["pair", "single", "family"]))
        argv = ["classify", mode]
        if mode == "family":
            argv += ["--relation", draw(st.sampled_from(["subgraph", "minor", "topminor", "induced"]))]
        argv += graphs({"pair": 2, "single": 1}.get(mode) or draw(st.integers(1, 3)))
    elif command == "colouring":
        argv = ["colouring", "pair"] + graphs(2)
    elif command == "cw":
        if draw(st.booleans()):
            argv = ["cw", "exact"] + graphs(1)
            if draw(st.booleans()):
                argv += ["--max-n", draw(_INTS)]
        else:
            argv = ["cw", "eval", draw(st.sampled_from([".", "missing.cwx"]))]
    elif command == "free-check":
        argv = ["free-check"] + graphs(1) + ["--patterns"] + graphs(draw(st.integers(1, 2)))
    elif command == "witness":
        argv = ["witness", draw(st.sampled_from(sorted(FAMILIES) + ["nope"]))]
        argv += draw(st.lists(_INTS, min_size=1, max_size=2))
        argv += draw(st.lists(st.sampled_from(["--verify-free", "--certify"]), unique=True))
        if draw(st.booleans()):
            # neither path can be opened for writing, so no file is made
            argv += [draw(st.sampled_from(["--out", "--out-partition"])), draw(st.sampled_from([".", "missing-dir/x"]))]
    else:
        argv = ["scan", "--max-vertices", draw(_INTS.filter(lambda k: int(k) <= 3))]
    if draw(st.booleans()):
        argv.append("--json")  # not every command takes it: then argparse exits 2
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    try:
        code, _, err = invoke(*argv)
    except SystemExit as exc:
        assert exc.code == 2, argv  # argparse's usage error
    else:
        assert code in range(5), argv
        assert "Traceback" not in err, argv


def test_non_ascii_graph6_argument_is_a_parse_error():
    src = os.path.dirname(os.path.dirname(cwkit.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "cwkit", "classify", "single", "Dh\u00e9"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "graph6 input must be ASCII" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_scan_negative_budget_is_an_input_error():
    src = os.path.dirname(os.path.dirname(cwkit.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "cwkit", "scan", "--max-vertices=-1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "vertex count must be non-negative, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr
    # a budget of 0 still scans the empty catalogue
    code, out, _ = invoke("scan", "--max-vertices", "0")
    assert code == 0
    assert out.startswith("scanned unordered pairs over graphs with <= 0 vertices: 0\n")


def test_scan_small_and_deterministic():
    code1, out1, _ = invoke("scan", "--max-vertices", "4")
    code2, out2, _ = invoke("scan", "--max-vertices", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "Bounded" in out1


def test_repeat_runs_byte_identical():
    a = invoke("classify", "pair", "K3", "P1+P5")
    b = invoke("classify", "pair", "K3", "P1+P5")
    assert a == b


def test_deep_name_nesting_is_a_parse_error():
    deep = "co(" * 600 + "P4" + ")" * 600
    code, out, err = invoke("classify", "single", deep)
    assert code == 2 and out == ""
    assert "nested deeper than" in err and "Traceback" not in err


def test_flat_union_of_thousands_evaluates(tmp_path):
    # A flat union parses to a left-deep chain as deep as it is long.
    f = tmp_path / "flat.cwx"
    f.write_text(" + ".join(f"1(v{i})" for i in range(3000)) + "\n")
    src = os.path.dirname(os.path.dirname(cwkit.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "cwkit", "cw", "eval", str(f)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[:2] == ["width=1", "n=3000 m=0"]


def _run_in_one_gib(*argv):
    """Run the CLI in a subprocess held to 1 GiB of address space, so that a
    missing cap fails the test instead of the machine."""
    import resource

    src = os.path.dirname(os.path.dirname(cwkit.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "cwkit", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=limit_memory,
    )


def test_huge_declared_vertex_count_is_a_capacity_error(tmp_path):
    # The header alone would make the graph allocate one int per declared
    # vertex (about 8 GB on 64-bit CPython).
    f = tmp_path / "huge.edges"
    f.write_text("1000000000 0\n")
    proc = _run_in_one_gib("cw", "exact", str(f))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"at most {EDGE_LIST_CAP} vertices" in proc.stderr


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("witness", "thm4G", "100000"), f"at most {EDGE_LIST_CAP} vertices"),
        (("classify", "single", "K100000"), f"at most {EDGE_LIST_CAP} vertices"),
        (("classify", "single", "K2000"), "at most 1000000 edges"),
        (("classify", "single", "P100000000"), f"at most {EDGE_LIST_CAP} vertices"),
        (("classify", "single", "grid(100000)"), f"at most {EDGE_LIST_CAP} vertices"),
        # a path this long would need about n*n/16 bytes of adjacency bitmasks
        (("classify", "single", "P100000"), f"at most {EDGE_LIST_CAP} vertices"),
        (("classify", "single", "co(K6000)"), "K6000 has 17997000 edges"),
        (("classify", "single", "co(K1500)"), "K1500 has 1124250 edges"),
        (("classify", "pair", "P6000", "P3"), "the complement has 17991001 edges"),
    ],
    ids=[
        "thm4G(100000)", "K100000", "K2000", "P100000000", "grid(100000)", "P100000",
        "co(K6000)", "co(K1500)", "P6000,P3",
    ],
)
def test_huge_generated_graph_is_a_capacity_error(argv, limit):
    # Generators and names are checked with the graph's closed-form size
    # before anything is built, and so are the inner graph of co(...) and the
    # complement of a pair member, where the named graph itself fits.
    proc = _run_in_one_gib(*argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert limit in proc.stderr


def test_huge_graph6_input_is_a_capacity_error(tmp_path):
    # K4000 as graph6: a 1.3 MB file for 7,998,000 edges, refused before any
    # edge list is built.  n(n-1)/2 is a multiple of 6, so every body byte
    # is six set bits and there is no padding.
    n = 4000
    size = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    f = tmp_path / "k4000.g6"
    f.write_text(size + "~" * (n * (n - 1) // 12) + "\n")
    proc = _run_in_one_gib("classify", "single", str(f))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "the graph6 input has 7998000 edges; graphs support at most 1000000 edges" in proc.stderr


def test_oversized_oracle_table_is_a_capacity_error(tmp_path):
    # 33 connected vertices: the tables would hold 2**33 entries each, and
    # --max-n does not lift the table ceiling.
    f = tmp_path / "thm4G3.edges"
    f.write_text(to_edge_list(p6_diamond_base(3)[0]))
    proc = _run_in_one_gib("cw", "exact", str(f), "--max-n", "40")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "at most 16 vertices, got 33" in proc.stderr


def test_graph_with_oversized_complement_keeps_its_graph6_name():
    # grid(40)'s complement is past the edge ceiling, so no co(...) name is
    # sought for it and the verdict names it in graph6.
    proc = _run_in_one_gib("classify", "single", "grid(40)")
    assert proc.returncode == 0, proc.stderr
    assert "status=Unbounded rule=SG matched=graph6:" in proc.stdout


@pytest.mark.parametrize("name", ["C2000+K3+P1", "C1200+K3"])
def test_long_cycle_probe_needs_no_deep_recursion(name):
    proc = _run_in_one_gib("colouring", "pair", name, "K1_3")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "rule=COL-N6" in proc.stdout


def test_lexicographic_embedding_of_a_big_pattern_fits_in_one_gib(tmp_path):
    # An 800-vertex circular ladder against a relabelled copy of itself: the
    # lexicographic pass of contains_induced (and so free-check) must
    # reuse the first pass's steps, not hold a step list per pinned vertex,
    # which for this pattern would take about n**3/3 references.
    import random

    n, k = 800, 400
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    perm = list(range(n))
    random.Random(5).shuffle(perm)
    relabelled = [(perm[u], perm[v]) for u, v in edges]
    pattern, host = tmp_path / "ladder.edges", tmp_path / "relabelled.edges"
    pattern.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    host.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in relabelled))
    proc = _run_in_one_gib("free-check", str(host), "--patterns", str(pattern))
    assert proc.returncode == 1, proc.stderr
    image = [int(w) for w in proc.stdout.split("embedding=")[1].split(",")]
    host_edges = {frozenset(e) for e in relabelled}
    assert sorted(image) == list(range(n))
    assert all(frozenset((image[u], image[v])) in host_edges for u, v in edges)
