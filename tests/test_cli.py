import json
import subprocess
import sys
import time

import pytest

from residuemat import DEFAULT_MAX_Q, cli
from residuemat.cli import (
    EQUIV_MAX_MATRICES,
    MAX_POLY_DEGREE,
    VERIFY_MAX_PAIRS,
    VERIFY_MAX_PRODUCTS,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- symbol ----------------------------------------------------------------


def test_symbol_basic(capsys):
    code, out, err = run(capsys, "symbol", "--q", "3", "--d", "2", "--a", "t", "--P", "t+1")
    assert code == 0 and err == ""
    assert out == "index=1 zeta_power=1/2\n"


def test_symbol_extension_field(capsys):
    code, out, _ = run(
        capsys,
        "symbol", "--p", "3", "--m", "2", "--d", "4", "--a", "t", "--P", "t + {0,1}",
    )
    assert code == 0
    assert out == "index=2 zeta_power=2/4\n"


def test_symbol_undefined(capsys):
    code, out, err = run(capsys, "symbol", "--q", "3", "--d", "2", "--a", "t", "--P", "t")
    assert code == 1 and out == ""
    assert err == "error: symbol undefined: a divisible by P\n"


def test_symbol_d_does_not_divide(capsys):
    code, _, err = run(capsys, "symbol", "--q", "5", "--d", "3", "--a", "t", "--P", "t+1")
    assert code == 1
    assert "does not divide" in err


def test_symbol_requires_d(capsys):
    code, _, err = run(capsys, "symbol", "--q", "3", "--a", "t", "--P", "t+1")
    assert code == 2
    assert err.startswith("usage error:")


def test_polynomial_degree_bound(capsys):
    bound = f"exceeds the degree bound {MAX_POLY_DEGREE}\n"
    code, out, err = run(
        capsys, "symbol", "--q", "5", "--d", "2", "--a", "t", "--P", "t^3000000"
    )
    assert code == 1 and out == ""
    assert err == "error: term t^3000000 " + bound
    code, out, err = run(capsys, "matrix", "--q", "5", "--d", "2", "t", "t^999 + 1")
    assert code == 1 and out == ""
    assert err == "error: term t^999 " + bound
    # the bound itself is allowed
    code, _, err = run(
        capsys, "symbol", "--q", "5", "--d", "2", "--a", f"t^{MAX_POLY_DEGREE}", "--P", "t+1"
    )
    assert code == 0 and err == ""


# -- field flag handling -----------------------------------------------------


def test_q_must_be_prime(capsys):
    code, _, err = run(capsys, "symbol", "--q", "9", "--d", "2", "--a", "t", "--P", "t+1")
    assert code == 1
    assert "is not prime; prime powers must be given as --p/--m" in err


def test_q_and_p_conflict(capsys):
    code, _, err = run(
        capsys, "symbol", "--q", "3", "--p", "3", "--d", "2", "--a", "t", "--P", "t+1"
    )
    assert code == 2
    assert "not both" in err


def test_field_required(capsys):
    code, _, err = run(capsys, "symbol", "--d", "2", "--a", "t", "--P", "t+1")
    assert code == 2
    assert "a field is required" in err


def test_max_q_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RESIDUEMAT_MAX_Q", "8")
    code, _, err = run(capsys, "symbol", "--q", "13", "--d", "2", "--a", "t", "--P", "t+1")
    assert code == 1
    assert "exceeds the configured bound 8" in err


def test_max_q_bound_for_huge_m(capsys):
    # p^m here has about 30,000 digits, more than Python converts to a string
    code, _, err = run(
        capsys, "symbol", "--p", "2", "--m", "100000", "--d", "3", "--a", "t", "--P", "t+1"
    )
    assert code == 1
    assert f"exceeds the configured bound {DEFAULT_MAX_Q}" in err


def test_max_q_env_garbage(capsys, monkeypatch):
    monkeypatch.setenv("RESIDUEMAT_MAX_Q", "lots")
    code, _, err = run(capsys, "symbol", "--q", "3", "--d", "2", "--a", "t", "--P", "t+1")
    assert code == 2
    assert "RESIDUEMAT_MAX_Q" in err


# -- matrix -------------------------------------------------------------------


def test_matrix_output(capsys):
    code, out, _ = run(capsys, "matrix", "--q", "3", "--d", "2", "t", "t+1")
    assert code == 0
    assert out == "2 2\n. 1\n0 .\n"


def test_matrix_rejects_duplicates(capsys):
    code, _, err = run(capsys, "matrix", "--q", "3", "--d", "2", "t", "t")
    assert code == 1
    assert "duplicate" in err


# -- classify -----------------------------------------------------------------


def write_matrix(tmp_path, text):
    path = tmp_path / "m.mat"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_classify_json(capsys, tmp_path):
    path = write_matrix(tmp_path, "2 4\n. 1\n3 .\n")
    code, out, _ = run(capsys, "classify", "--q", "5", "--matrix", path)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "branch": "odd",
        "s": 2,
        "sigma": [1, 2],
        "verdict": "realizable",
        "witness": None,
    }
    # keys are sorted for byte-stable output
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_classify_not_realizable(capsys, tmp_path):
    path = write_matrix(tmp_path, "2 4\n. 1\n2 .\n")
    code, out, _ = run(capsys, "classify", "--p", "3", "--m", "2", "--matrix", path)
    assert code == 0  # classification itself succeeded
    data = json.loads(out)
    assert data["verdict"] == "not_realizable"
    assert data["witness"] == {"pair": [1, 2]}


def test_classify_d_flag_conflict(capsys, tmp_path):
    path = write_matrix(tmp_path, "2 4\n. 1\n3 .\n")
    code, _, err = run(capsys, "classify", "--q", "5", "--d", "2", "--matrix", path)
    assert code == 1
    assert "conflicts with the matrix header" in err


def test_classify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--q", "5", "--matrix", str(tmp_path / "no.mat"))
    assert code == 1
    assert err.startswith("error:")


# -- realize --------------------------------------------------------------


def test_realize_json(capsys, tmp_path):
    path = write_matrix(tmp_path, "2 4\n. 1\n3 .\n")
    code, out, _ = run(capsys, "realize", "--q", "5", "--matrix", path)
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 2 and data["branch"] == "odd"
    assert data["polys"] == ["t", "t^3 + 2*t^2 + 3"]
    assert len(data["transcript"]) == 2


def test_realize_seeded(capsys, tmp_path):
    path = write_matrix(tmp_path, "2 4\n. 1\n3 .\n")
    code, out1, _ = run(capsys, "realize", "--q", "5", "--matrix", path, "--seed", "9")
    assert code == 0
    code, out2, _ = run(capsys, "realize", "--q", "5", "--matrix", path, "--seed", "9")
    assert code == 0 and out1 == out2
    data = json.loads(out1)
    assert data["s"] == 2


def test_realize_not_realizable_exit(capsys, tmp_path):
    path = write_matrix(tmp_path, "2 4\n. 1\n2 .\n")
    code, out, err = run(capsys, "realize", "--q", "5", "--matrix", path)
    assert code == 1 and out == ""
    assert "not realizable" in err


def test_realize_max_degree_exhaustion(capsys, tmp_path):
    path = write_matrix(tmp_path, "2 2\n. 1\n0 .\n")
    code, _, err = run(
        capsys, "realize", "--q", "3", "--matrix", path, "--max-degree", "2"
    )
    assert code == 1
    assert "max_degree" in err


def test_realize_max_degree_bound(capsys, tmp_path, monkeypatch):
    path = write_matrix(tmp_path, "2 4\n. 1\n3 .\n")

    def no_search(*args):
        raise AssertionError("realize must not start above the degree bound")

    with monkeypatch.context() as m:
        m.setattr(cli, "realize", no_search)
        code, out, err = run(
            capsys, "realize", "--q", "5", "--matrix", path,
            "--max-degree", str(MAX_POLY_DEGREE + 1),
        )
    assert code == 1 and out == ""
    assert err == (
        f"error: --max-degree {MAX_POLY_DEGREE + 1} exceeds the degree bound "
        f"{MAX_POLY_DEGREE}\n"
    )
    # the bound itself is allowed
    code, out, _ = run(
        capsys, "realize", "--q", "5", "--matrix", path, "--max-degree", str(MAX_POLY_DEGREE)
    )
    assert code == 0
    assert json.loads(out)["polys"] == ["t", "t^3 + 2*t^2 + 3"]


# -- verify -----------------------------------------------------------------


def test_verify_output(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--d", "2", "--max-deg", "2")
    assert code == 0
    assert out == (
        "reciprocity: pairs=30, failures=0\n"
        "structure: moduli=6, residues=30, products=117, failures=0\n"
    )


def test_verify_default_depth(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--d", "2")
    assert code == 0
    assert "pairs=182" in out


def test_verify_pair_bound(capsys):
    # 13 + 78 + 728 + 7098 irreducibles of degree <= 4 over GF(13)
    assert VERIFY_MAX_PAIRS == 1_000_000
    code, out, err = run(capsys, "verify", "--q", "13", "--d", "4", "--max-deg", "4")
    assert code == 1 and out == ""
    assert err == (
        "error: verify --max-deg 4 needs at least 62670972 ordered pairs, "
        "above the bound 1000000\n"
    )
    # the count stops at degree 8 (1318 irreducibles over GF(3)), so a huge
    # depth is refused at once
    code, out, err = run(capsys, "verify", "--q", "3", "--d", "2", "--max-deg", "1000000000")
    assert code == 1 and out == ""
    assert err == (
        "error: verify --max-deg 1000000000 needs at least 1735806 ordered pairs, "
        "above the bound 1000000\n"
    )


def test_verify_pair_bound_is_inclusive(capsys, monkeypatch):
    # 3 + 3 irreducibles of degree <= 2 over GF(3): 30 ordered pairs
    monkeypatch.setattr(cli, "VERIFY_MAX_PAIRS", 30)
    code, out, _ = run(capsys, "verify", "--q", "3", "--d", "2", "--max-deg", "2")
    assert code == 0 and out.startswith("reciprocity: pairs=30,")
    monkeypatch.setattr(cli, "VERIFY_MAX_PAIRS", 29)
    code, out, err = run(capsys, "verify", "--q", "3", "--d", "2", "--max-deg", "2")
    assert code == 1 and out == ""
    assert err == (
        "error: verify --max-deg 2 needs at least 30 ordered pairs, above the bound 29\n"
    )



def test_verify_product_bound(capsys, monkeypatch):
    # 997 * 996 = 993012 pairs pass the pair bound, but each of the 997
    # degree-1 moduli has 997 * 996 / 2 residue products
    assert VERIFY_MAX_PRODUCTS == 10_000_000

    def no_work(*args):
        raise AssertionError("verify started work above the bound")

    monkeypatch.setattr(cli, "verify_reciprocity", no_work)
    monkeypatch.setattr(cli, "verify_symbol_structure", no_work)
    code, out, err = run(capsys, "verify", "--q", "997", "--d", "2", "--max-deg", "1")
    assert code == 1 and out == ""
    assert err == (
        "error: verify needs 495016482 residue products for the structure check "
        "to degree 1, above the bound 10000000\n"
    )


def test_verify_below_product_bound_runs(capsys):
    # 13 + 78 irreducibles of degree <= 2 over GF(13): 1108302 products
    code, out, _ = run(capsys, "verify", "--q", "13", "--d", "4", "--max-deg", "2")
    assert code == 0
    assert out == (
        "reciprocity: pairs=8190, failures=0\n"
        "structure: moduli=91, residues=13260, products=1108302, failures=0\n"
    )


def test_verify_product_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "VERIFY_MAX_PRODUCTS", 117)
    code, out, _ = run(capsys, "verify", "--q", "3", "--d", "2", "--max-deg", "3")
    assert code == 0 and "products=117," in out
    monkeypatch.setattr(cli, "VERIFY_MAX_PRODUCTS", 116)
    code, out, err = run(capsys, "verify", "--q", "3", "--d", "2", "--max-deg", "3")
    assert code == 1 and out == ""
    assert err == (
        "error: verify needs 117 residue products for the structure check "
        "to degree 2, above the bound 116\n"
    )

# -- equiv --------------------------------------------------------------------


def test_equiv_output(capsys):
    code, out, _ = run(capsys, "equiv", "--n", "2", "--d", "4")
    assert code == 0
    assert out == "n=2, d=4: total=16, admissible=8, equivalent=yes\n"


def test_equiv_bound(capsys):
    code, _, err = run(capsys, "equiv", "--n", "3", "--d", "4", "--bound", "100")
    assert code == 1
    assert "exceed" in err
    # 2^14520 has more decimal digits than int-to-str conversion allows
    code, out, err = run(capsys, "equiv", "--n", "121", "--d", "2")
    assert (code, out) == (1, "")
    assert err == "error: 2^14520 matrices exceed the bound 1000000\n"
    for d in ("0", "-2"):
        code, out, err = run(capsys, "equiv", "--n", "2", "--d", d)
        assert (code, out) == (1, "")
        assert "d even" in err


def test_equiv_bound_ceiling(capsys, monkeypatch):
    # a user bound above the ceiling is refused before any matrix is counted,
    # even where the matrices themselves would fit under the default bound
    assert EQUIV_MAX_MATRICES == 2**20

    def no_work(*args, **kwargs):
        raise AssertionError("equiv started work above the ceiling")

    monkeypatch.setattr(cli, "criteria_equiv_bruteforce", no_work)
    for n, bound in (("5", "2000000"), ("6", str(10**10)), ("2", str(2**20 + 1))):
        start = time.perf_counter()
        code, out, err = run(capsys, "equiv", "--n", n, "--d", "2", "--bound", bound)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (1, "")
        assert err == (
            f"error: --bound {bound} exceeds the matrix-count ceiling "
            "EQUIV_MAX_MATRICES = 1048576\n"
        )
    monkeypatch.undo()
    # the ceiling itself is allowed
    code, out, _ = run(capsys, "equiv", "--n", "2", "--d", "4", "--bound", str(2**20))
    assert code == 0 and out == "n=2, d=4: total=16, admissible=8, equivalent=yes\n"


# -- parser-level behavior ---------------------------------------------------


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "residuemat", "symbol", "--q", "3", "--d", "2",
         "--a", "t", "--P", "t+1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "index=1 zeta_power=1/2\n"


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "residuemat", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("symbol", "matrix", "classify", "realize", "verify", "equiv"):
        assert name in proc.stdout
