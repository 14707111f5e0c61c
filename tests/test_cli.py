import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import cwkit
from cwkit.cli import resolve_graph, run
from cwkit.errors import InputError
from cwkit.graphs import EDGE_LIST_CAP, to_edge_list, to_graph6
from cwkit.isomorphism import is_isomorphic
from cwkit.names import graph_named
from cwkit.witnesses import p6_diamond_base


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


def test_cw_exact_capacity():
    code, _, err = invoke("cw", "exact", "grid(3)")
    assert code == 3 and "capped" in err
    code, out, _ = invoke("cw", "exact", "grid(3)", "--max-n", "9")
    assert code == 0


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
    ],
    ids=["thm4G(100000)", "K100000", "K2000", "P100000000", "grid(100000)", "P100000"],
)
def test_huge_generated_graph_is_a_capacity_error(argv, limit):
    # Generators and names are checked with the graph's closed-form size
    # before anything is built.
    proc = _run_in_one_gib(*argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert limit in proc.stderr


def test_oversized_oracle_table_is_a_capacity_error(tmp_path):
    # 33 connected vertices: the tables would hold 2**33 entries each, and
    # --max-n does not lift the table ceiling.
    f = tmp_path / "thm4G3.edges"
    f.write_text(to_edge_list(p6_diamond_base(3)[0]))
    proc = _run_in_one_gib("cw", "exact", str(f), "--max-n", "40")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "at most 16 vertices, got 33" in proc.stderr
