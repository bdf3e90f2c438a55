"""End-to-end checks of the command line driver, run in process."""

import argparse

import pytest

from hprop import assemble_with_rule, gauss_hermite_rule
from hprop.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, \
    build_parser, main

SUBCOMMANDS = ("bench", "quaderr", "rederr", "perturb", "propagate", "verify")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    header, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            header[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


# -- smoke runs --------------------------------------------------------------


def test_quaderr_runs_and_reports(capsys):
    code, out, err = run(["quaderr", "--kmax", "8,12", "--degree", "4",
                          "--beta", "3"], capsys)
    assert code == EXIT_OK
    header, columns, rows = parse_csv(out)
    assert columns == ["dim", "bound", "set_size", "max_norm"]
    assert header["command"] == "quaderr"
    assert header["kmax"] == "8,12"
    assert [r[1] for r in rows] == ["8", "12"]
    assert all(float(r[3]) >= 0.0 for r in rows)


def test_rederr_reports_interior_column(capsys):
    code, out, _ = run(["rederr", "--kmax", "12", "--degree", "4",
                        "--beta", "3"], capsys)
    assert code == EXIT_OK
    _, columns, rows = parse_csv(out)
    assert columns[-1] == "interior_max"
    assert float(rows[0][4]) < 1e-13


def test_rederr_interpolates_only_the_smooth_remainder(capsys):
    # torsional-ho declares its -x**2/2 part, which the ladder applies
    # exactly, so its surrogate and reduction error are torsional's
    found = {}
    for potential in ("torsional", "torsional-ho"):
        code, out, _ = run(["rederr", "--kmax", "25,50", "--potential",
                            potential], capsys)
        assert code == EXIT_OK
        found[potential] = parse_csv(out)[2]
    assert len(found["torsional"]) == 2
    assert found["torsional-ho"] == found["torsional"]


def test_bench_reports_timings(capsys):
    code, out, _ = run(["bench", "--kmax", "6,8", "--degree", "3"], capsys)
    assert code == EXIT_OK
    header, columns, rows = parse_csv(out)
    assert columns == ["dim", "bound", "set_size", "nterms", "t_fast_s",
                       "t_dense_s", "ratio", "dense_status"]
    assert "dense_cap" in header
    for r in rows:
        assert r[-1] == "ok"
        assert float(r[4]) > 0.0 and float(r[5]) > 0.0


def test_perturb_sweeps_bounds_and_steps(capsys):
    code, out, _ = run(["perturb", "--kmax", "8", "--degree", "4",
                        "--h", "1/4,1/8", "--lanczos", "3"], capsys)
    assert code == EXIT_OK
    _, columns, rows = parse_csv(out)
    assert columns[4:] == ["step", "step_value", "error"]
    assert [r[4] for r in rows] == ["1/4", "1/8"]
    assert float(rows[0][6]) > float(rows[1][6]) > 0.0


def test_propagate_emits_one_row_per_step_size(capsys):
    code, out, _ = run(["propagate", "--kmax", "6", "--degree", "3",
                        "--h", "1/2,1/4", "--lanczos", "4"], capsys)
    assert code == EXIT_OK
    header, columns, rows = parse_csv(out)
    assert header["scheme"] == "midpoint"
    assert len(rows) == 2
    assert [r[5] for r in rows] == ["1/2", "1/4"]
    assert all(float(r[7]) > 0.0 for r in rows)


def test_verify_passes_on_defaults(capsys):
    code, out, _ = run(["verify", "--kmax", "8", "--degree", "4"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(": PASS (" in ln for ln in lines)
    assert lines[2].startswith("full-set equivalence K=8 (rule order 8)")


# -- determinism -------------------------------------------------------------


def test_quaderr_output_is_reproducible(tmp_path, capsys):
    args = ["quaderr", "--kmax", "8,12", "--degree", "4", "--beta", "3"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(args + ["--out", str(p)]) == EXIT_OK
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]


def test_bench_data_columns_are_stable_across_runs(tmp_path, capsys):
    args = ["bench", "--kmax", "6", "--degree", "3", "--seed", "7"]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (pa, pb):
        assert main(args + ["--out", str(p)]) == EXIT_OK
    capsys.readouterr()

    def stable_view(path):
        header, columns, rows = parse_csv(path.read_text())
        keep = [columns.index(c) for c in
                ("dim", "bound", "set_size", "nterms", "dense_status")]
        return header, [[r[i] for i in keep] for r in rows]

    assert stable_view(pa) == stable_view(pb)


# -- failure modes and exit codes ---------------------------------------------


def test_usage_errors_exit_one(capsys):
    cases = [
        [],
        ["frobnicate"],
        ["bench", "--kmax", "abc"],
        ["bench", "--kmax", ""],
        ["bench", "--kmax=-4"],
        ["perturb", "--h", "0"],
        ["perturb", "--h", "nonsense"],
        ["perturb", "--h", "1/0"],
        ["propagate", "--scheme", "euler"],
        ["propagate", "--reference-steps", "8"],
        ["propagate", "--reference-lanczos", "4"],
        ["bench", "--jobs", "0"],
        ["rederr", "--degree", "-1"],
        ["rederr", "--halfwidth", "0"],
        ["rederr", "--halfwidth", "nan"],
        ["rederr", "--halfwidth", "inf"],
        ["rederr", "--scale", "-2"],
        ["verify", "--seed", "-1"],
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == EXIT_USAGE, argv


# degree 8 on K = 12 has a thin margin; the comparison does not depend on it
@pytest.mark.filterwarnings("ignore:surrogate degree:UserWarning")
def test_halfwidth_sets_the_surrogate_box(capsys):
    # torsional is 1 - cos(x / L), so L changes the surrogate and the rows
    argv = ["rederr", "--kmax", "12,20"]
    code, wide, _ = run(argv + ["--halfwidth", "16"], capsys)
    assert code == EXIT_OK
    code, narrow, _ = run(argv + ["--halfwidth", "8"], capsys)
    assert code == EXIT_OK
    assert parse_csv(narrow)[2] != parse_csv(wide)[2]


def test_dilated_splitting_is_rejected(capsys):
    # the box half width L is the only length; no subcommand has a dilation
    for cmd in SUBCOMMANDS:
        code, _, err = run([cmd, "--kmax", "6", "--scale", "2"], capsys)
        assert code == EXIT_USAGE, cmd
        assert "unrecognized arguments: --scale 2" in err, cmd


# degree 8 on K = 2 has a thin margin; only the option reads matter here
@pytest.mark.filterwarnings("ignore:surrogate degree:UserWarning")
@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_each_subcommand_reads_every_option_it_accepts(cmd, tmp_path):
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    argv = [cmd, "--kmax", "2", "--out", str(tmp_path / "out.csv")]
    if cmd in ("perturb", "propagate"):
        argv += ["--h", "1/2"]
    args = build_parser().parse_args(argv, namespace=Recorder())
    reads.clear()  # parsing itself probes every destination
    assert args.func(args) == EXIT_OK
    # echoing an option in the CSV header does not count as reading it
    unread = set(vars(args)) - reads - {"func", "command"}
    assert not unread, f"{cmd} accepts options it never reads: {unread}"


def test_propagate_rejects_steps_that_do_not_tile_the_interval(capsys):
    code, _, err = run(["propagate", "--kmax", "6", "--degree", "3",
                        "--h", "2/5"], capsys)
    assert code == EXIT_USAGE
    assert "does not divide" in err
    # decimal spellings of valid fractions are fine
    code, _, _ = run(["propagate", "--kmax", "6", "--degree", "3",
                      "--h", "0.5", "--lanczos", "3"], capsys)
    assert code == EXIT_OK


def test_propagate_refuses_a_reference_that_does_not_converge(capsys,
                                                              monkeypatch):
    from hprop import OracleHamiltonian, build_hyperbolic, build_reference, \
        henon_heiles_perturbed, make_decay_vector

    argv = ["propagate", "--kmax", "6", "--degree", "3", "--h", "1/2"]
    code, out, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert parse_csv(out)[0]["reference_tol"] == "1e-12"
    # no two levels agree exactly, so doubling runs into its cap
    monkeypatch.setattr("hprop.error_lab.REFERENCE_TOL", 0.0)
    monkeypatch.setattr("hprop.error_lab.REFERENCE_MAX_STEPS", 80)
    iset = build_hyperbolic(2, 6)
    y0 = make_decay_vector(iset, 3).data.astype(complex)
    with pytest.raises(RuntimeError, match="80 and 40 gl2 steps"):
        build_reference(OracleHamiltonian(iset, henon_heiles_perturbed(2), 3),
                        y0)
    code, out, err = run(argv, capsys)
    assert code == EXIT_NUMERICAL
    assert out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: reference did not converge")


def test_verify_detects_wrong_quadrature_order(capsys, monkeypatch):
    # the dense side assembled one order low, as a broken oracle would be
    def one_order_low(iset, approx, rule):
        return assemble_with_rule(iset, approx,
                                  gauss_hermite_rule(rule.order - 1))

    monkeypatch.setattr("hprop.cli.assemble_with_rule", one_order_low)
    code, out, _ = run(["verify", "--kmax", "8", "--degree", "4"], capsys)
    assert code == EXIT_VERIFY
    assert "full-set equivalence K=8 (rule order 8): FAIL" in out
    assert "quadrature moments M=8: PASS" in out


def test_unwritable_out_is_refused_before_the_study(tmp_path, capsys,
                                                     monkeypatch):
    def study(args):
        pytest.fail("the study ran before --out was checked")

    for command in ("verify", "rederr"):
        monkeypatch.setattr(f"hprop.cli.cmd_{command}", study)
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            code, text, err = run([command, "--kmax", "2", "--out", str(out)],
                                  capsys)
            assert code == EXIT_USAGE, (command, out)
            assert text == ""
            assert "error: argument --out:" in err


def test_failed_write_of_out_is_an_error_line(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("hprop.cli.open", refuse, raising=False)
    code, out, err = run(["verify", "--kmax", "2", "--out",
                          str(tmp_path / "x.csv")], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("error: cannot write --out: [Errno 28] No space left on "
                   "device\n")


def test_dense_cap_failure_exits_numerical(capsys, monkeypatch):
    monkeypatch.setattr("hprop.galerkin_oracle.DENSE_CAP", 10)
    code, _, err = run(["quaderr", "--kmax", "10", "--degree", "4",
                        "--beta", "3"], capsys)
    assert code == EXIT_NUMERICAL
    assert err.startswith("error:")
    assert "cap" in err


def test_allocation_failure_exits_numerical(capsys, monkeypatch):
    # an allocation below the size guards that the machine still refuses
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.05 TiB")

    monkeypatch.setattr("hprop.cli.interpolate", refuse)
    code, out, err = run(["rederr", "--kmax", "10"], capsys)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 2.05 TiB\n"


def test_oversized_full_cube_exits_numerical_at_once(capsys):
    # the reduction error's reference cube would have 401**3 members
    code, out, err = run(["rederr", "--dims", "3", "--kmax", "400"], capsys)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: 64481201 full-cube members exceed the limit of 16777216"]


def test_bench_skips_dense_side_beyond_cap(capsys, monkeypatch):
    monkeypatch.setattr("hprop.galerkin_oracle.DENSE_CAP", 10)
    code, out, _ = run(["bench", "--kmax", "10", "--degree", "3"], capsys)
    assert code == EXIT_OK
    header, columns, rows = parse_csv(out)
    assert header["dense_cap"] == "10"
    assert rows[0][-1] == "skipped_cap"
    assert rows[0][columns.index("t_dense_s")] == ""
    assert float(rows[0][columns.index("t_fast_s")]) > 0.0


def test_support_condition_warning_goes_to_stderr(capsys):
    code, out, err = run(["verify", "--kmax", "8", "--degree", "4",
                          "--halfwidth", "1.0"], capsys)
    assert code == EXIT_OK
    assert "support condition violated" in err
    assert ": FAIL" not in out


# -- output formatting ---------------------------------------------------------


def test_headers_are_sorted_key_value_lines(tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert main(["quaderr", "--kmax", "12,8,8", "--degree", "4",
                 "--beta", "3", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    lines = path.read_text().splitlines()
    keys = [ln[2:].split("=", 1)[0] for ln in lines if ln.startswith("# ")]
    assert keys == sorted(keys)
    assert "command" in keys and "beta" in keys
    # duplicate and unsorted bounds were normalized on the way in
    assert "# kmax=8,12" in lines


def test_floats_roundtrip_at_full_precision(tmp_path, capsys):
    from hprop import build_hyperbolic, interpolate, make_decay_vector, \
        quadrature_error, torsional

    path = tmp_path / "out.csv"
    assert main(["quaderr", "--kmax", "12", "--degree", "6",
                 "--beta", "3", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    _, _, rows = parse_csv(path.read_text())
    val = rows[0][3]
    iset = build_hyperbolic(2, 12)
    rep = quadrature_error(iset, interpolate(torsional(2), 6),
                           make_decay_vector(iset, 3))
    assert float(val) == rep.max()
    assert rep.max() > 0.0
