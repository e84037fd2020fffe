"""Command-line behavior: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import child_env
from posetideals import iterate_id
from posetideals.cli import COMPLETE_OPS, IDPOW_MAX_K, main
from posetideals.poset import LABEL_CAP, MAX_ELEMENTS
from posetideals.serialize import poset_from_json, poset_to_json
from posetideals.verification import SUITES, generate_corpus

DIAMOND_DOC = {"n": 4, "leq": [[0, 1], [0, 2], [1, 3], [2, 3]]}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def diamond_file(tmp_path):
    p = tmp_path / "diamond.json"
    p.write_text(json.dumps(DIAMOND_DOC))
    return str(p)


def test_gen_text(capsys):
    rc, out, _ = run_cli(capsys, "gen", "--max-n", "4")
    assert rc == 0
    assert out == "n=0:1 n=1:1 n=2:2 n=3:5 n=4:16 total=25\n"


def test_gen_json(capsys):
    rc, out, _ = run_cli(capsys, "--format", "json", "gen", "--max-n", "2")
    assert rc == 0
    assert out.splitlines() == [
        '{"instance":"n0/00","poset":{"leq":[],"n":0}}',
        '{"instance":"n1/00","poset":{"leq":[],"n":1}}',
        '{"instance":"n2/00","poset":{"leq":[],"n":2}}',
        '{"instance":"n2/01","poset":{"leq":[[0,1]],"n":2}}',
    ]


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "corpus.txt"
    rc, out, _ = run_cli(capsys, "gen", "--max-n", "3", "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text() == "n=0:1 n=1:1 n=2:2 n=3:5 total=9\n"


def test_gen_over_ceiling(capsys):
    rc, _, err = run_cli(capsys, "gen", "--max-n", "9")
    assert rc == 3 and "error" in err


def test_complete_ops(capsys, diamond_file):
    expected_sets = {
        "down": [0, 1, 3, 5, 7, 15],
        "id": [1, 3, 5, 15],
        "Id": [0, 1, 3, 5, 15],
        "chid": [1, 3, 5, 15],
        "chId": [0, 1, 3, 5, 15],
        "fdown": [1, 3, 5, 7, 15],
    }
    for op, sets in expected_sets.items():
        rc, out, _ = run_cli(capsys, "complete", "--op", op, "--in", diamond_file)
        assert rc == 0
        doc = json.loads(out)
        assert doc["sets"] == sets and doc["base_n"] == 4


def test_complete_id_frozen_line(capsys, diamond_file):
    rc, out, _ = run_cli(capsys, "complete", "--op", "Id", "--in", diamond_file)
    assert out == ('{"base_n":4,"kind":"ideal","leq":[[0,1],[1,2],[1,3],[2,4],'
                   '[3,4]],"sets":[0,1,3,5,15]}\n')


def test_complete_idpow(capsys, diamond_file):
    rc, out, _ = run_cli(capsys, "complete", "--op", "idpow", "--k", "2",
                         "--in", diamond_file)
    assert rc == 0
    stage = poset_from_json(json.loads(out))
    want = iterate_id(poset_from_json(DIAMOND_DOC), 2)
    assert stage.n == want.n == 4


def test_complete_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(DIAMOND_DOC)))
    rc, out, _ = run_cli(capsys, "complete", "--op", "down")
    assert rc == 0 and json.loads(out)["sets"] == [0, 1, 3, 5, 7, 15]


def test_complete_rejects_bad_documents(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "leq": [[0, 7]]}')
    rc, _, err = run_cli(capsys, "complete", "--op", "down", "--in", str(bad))
    assert rc == 2 and "error" in err
    rc, _, _ = run_cli(capsys, "complete", "--op", "down", "--in",
                       str(tmp_path / "missing.json"))
    assert rc == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("pure garbage")
    rc, _, _ = run_cli(capsys, "complete", "--op", "down", "--in", str(notjson))
    assert rc == 2


# Each malformed document, and the exit code complete and render give it:
# 2 for bad input, 3 for a poset beyond the MAX_ELEMENTS envelope.
BAD_DOCUMENTS = [
    pytest.param([1], 2, id="list"),
    pytest.param("poset", 2, id="string"),
    pytest.param(None, 2, id="null"),
    pytest.param({}, 2, id="no-n"),
    pytest.param({"n": True}, 2, id="bool-n"),
    pytest.param({"n": 2.0}, 2, id="float-n"),
    pytest.param({"n": "2"}, 2, id="string-n"),
    pytest.param({"n": MAX_ELEMENTS + 1}, 3, id="n-over-envelope"),
    pytest.param({"n": 10**18}, 3, id="huge-n"),
    pytest.param({"n": 2, "leq": {"0": 1}}, 2, id="leq-object"),
    pytest.param({"n": 2, "leq": ["01"]}, 2, id="leq-string-entry"),
    pytest.param({"n": 2, "leq": [[0, "1"]]}, 2, id="leq-string-index"),
    pytest.param({"n": 2, "leq": [[0, True]]}, 2, id="leq-bool-index"),
    pytest.param({"n": 2, "leq": [[0, 1, 1]]}, 2, id="leq-triple"),
    pytest.param({"n": 2, "labels": "ab"}, 2, id="labels-string"),
    pytest.param({"n": 2, "labels": ["a"]}, 2, id="labels-short"),
    # a 3-chain as up-rows: skipping the key would load a 3-antichain
    pytest.param({"n": 3, "up": [7, 6, 4]}, 2, id="unknown-key"),
]


@pytest.mark.parametrize("verb", [("complete", "--op", "down"), ("render",)],
                         ids=["complete", "render"])
@pytest.mark.parametrize("doc,code", BAD_DOCUMENTS)
def test_bad_documents_are_rejected(capsys, monkeypatch, verb, doc, code):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    rc, out, err = run_cli(capsys, *verb)
    assert (rc, out) == (code, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"sets": [0, 1], "base_n": True, "leq": [[0, 1]]},
    {"sets": [0, -1], "base_n": 1, "leq": [[0, 1]]},
    {"sets": [0, 4], "base_n": 2, "leq": [[0, 1]]},
    {"sets": "01", "base_n": 1},
    {"sets": [0, 1], "base_n": 1, "leq": [[0, 1]], "up": [3, 2]},
])
def test_render_rejects_bad_families(capsys, monkeypatch, doc):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    rc, out, err = run_cli(capsys, "render")
    assert (rc, out) == (2, "") and err.startswith("error: ")


def test_deeply_nested_json_is_bad_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
    rc, _, err = run_cli(capsys, "render")
    assert rc == 2 and err.startswith("error: ")


def test_complete_idpow_k_is_capped(capsys, diamond_file):
    rc, out, err = run_cli(capsys, "complete", "--op", "idpow", "--k",
                           str(IDPOW_MAX_K + 1), "--in", diamond_file)
    assert (rc, out) == (3, "") and err.startswith("error: ")
    rc, out, _ = run_cli(capsys, "complete", "--op", "idpow", "--k",
                         str(IDPOW_MAX_K), "--in", diamond_file)
    assert rc == 0 and poset_from_json(json.loads(out)).n == 4
    rc, _, err = run_cli(capsys, "complete", "--op", "idpow", "--k", "-1",
                         "--in", diamond_file)
    assert rc == 2 and err.startswith("error: ")


def test_complete_idpow_stops_at_the_label_cap(tmp_path):
    # each stage's labels nest the previous stage's, so a 10-chain's labels outgrow
    # LABEL_CAP long before --k reaches IDPOW_MAX_K; without the label cap
    # this run does not end within the timeout
    doc = tmp_path / "chain10.json"
    doc.write_text(json.dumps({"n": 10, "leq": [[i, j] for i in range(10) for j in range(i, 10)]}))
    out = subprocess.run([sys.executable, "-m", "posetideals", "complete", "--op", "idpow",
                          "--k", str(IDPOW_MAX_K), "--in", str(doc)],
                         capture_output=True, env=child_env(), timeout=60)
    assert (out.returncode, out.stdout) == (3, b"")
    assert out.stderr.startswith(b"error: ") and str(LABEL_CAP).encode() in out.stderr


# Integers reach -3..20, past the 2^14-set family cap, or beyond the
# 64-element envelope.  A valid sparse poset of up to 14 elements makes
# `complete` print a family of thousands of downsets; one of 15 or more runs
# into the cap and exits 3.
json_ints = st.integers(-3, 20) | st.sampled_from([MAX_ELEMENTS + 1, 2**70, -2**70])
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10)
pairs = st.lists(st.lists(json_ints, min_size=2, max_size=2) | json_values, max_size=5)
json_documents = (
    json_values
    | st.fixed_dictionaries({}, optional={
        "n": json_ints | json_values, "leq": pairs | json_values,
        "labels": st.lists(st.text(max_size=2), max_size=21) | json_values})
    | st.fixed_dictionaries({"sets": st.lists(json_ints, max_size=6) | json_values}, optional={
        "base_n": json_ints | json_values, "leq": pairs | json_values}))


@settings(max_examples=150, deadline=None)
@given(json_documents)
def test_arbitrary_documents_exit_cleanly(doc):
    for verb in (("complete", "--op", "down"), ("render",)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
            rc = main(list(verb))
        assert rc in (0, 2, 3), (verb, doc)
        assert "Traceback" not in err.getvalue()
        if rc:
            assert err.getvalue().startswith("error: ") and out.getvalue() == ""


def argvs(tmp: Path):
    """argv lists over every verb but render, small enough to run at once:
    --max-n <= 3, --k <= 4, budgets -2..50, ordinal text from a small
    alphabet, and --out on stdout or under tmp."""
    def opt(flag, values):
        return st.just([]) | values.map(lambda v: [flag, str(v)])

    out = opt("--out", st.sampled_from(["-", tmp / "out.txt", tmp / "no" / "out.txt", tmp]))
    max_n = st.integers(-1, 3).map(lambda v: ["--max-n", str(v)])  # default is 5
    k = opt("--k", st.integers(-1, 4))
    text = st.text(alphabet="wid0123456789^*+(), ", max_size=12)
    verbs = st.one_of(
        st.tuples(st.just(["gen"]), max_n, out),
        st.tuples(st.sampled_from(SUITES + ("all", "bogus")).map(
            lambda s: ["check", "--suite", s]), max_n, k, out),
        st.tuples(st.sampled_from(["atoms", "chain-bundle", "idemb-tower"]).map(
            lambda s: ["counterexample", "--name", s]), k, out),
        st.tuples(st.just(["ordinal"]), opt("--expr", text), opt("--product", text)),
        st.tuples(st.sampled_from(COMPLETE_OPS).map(
            lambda op: ["complete", "--op", op, "--in", str(tmp / "in.json")]), k, out))
    flags = st.tuples(opt("--format", st.sampled_from(["text", "json", "yaml"])),
                      opt("--budget", st.integers(-2, 50)),
                      opt("--seed", st.integers(-1, 3)))
    junk = st.lists(st.sampled_from(["--bogus", "x", "--k", "--max-n"]), max_size=1)
    return st.tuples(flags, verbs, junk).map(
        lambda t: [a for part in (*t[0], *t[1], t[2]) for a in part])


IN_DOCS = [DIAMOND_DOC, {"n": 3}, {"n": 2, "leq": [[0, 1], [1, 0]]}]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), doc=st.sampled_from(IN_DOCS))
def test_arbitrary_argv_exits_cleanly(tmp_path, data, doc):
    (tmp_path / "in.json").write_text(json.dumps(doc))
    argv = data.draw(argvs(tmp_path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    assert rc in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    # exit 3 from unknown verdicts alone writes nothing to stderr
    if rc == 2 or err.getvalue():
        assert err.getvalue().startswith(("error: ", "usage: ")), argv


@pytest.fixture
def no_corpus(monkeypatch):
    from posetideals import cli, verification

    def refuse(*args, **kwargs):
        raise AssertionError("corpus built")

    monkeypatch.setattr(cli, "generate_corpus", refuse)
    monkeypatch.setattr(verification, "generate_corpus", refuse)


KUREPA_TEXT = ("kurepa atoms(k=2): holds\n"
               "  trace: ∅,{0},{a0,0},{a1,a0,0}\n"
               "kurepa atoms(k=3): holds\n"
               "  trace: ∅,{0},{a0,0},{a1,a0,0}\n"
               "2 instances: holds\n")


def test_json_check_builds_no_corpus_for_kurepa(capsys, no_corpus):
    rc, out, _ = run_cli(capsys, "--format", "json", "check", "--suite", "kurepa")
    assert rc == 0 and len(out.splitlines()) == 2


def test_text_check_builds_no_corpus_for_kurepa(capsys, no_corpus):
    # far above the corpus ceiling, which kurepa never reads
    rc, out, _ = run_cli(capsys, "check", "--suite", "kurepa", "--max-n", "9")
    assert (rc, out) == (0, KUREPA_TEXT)


def test_complete_down_stops_at_the_family_cap(capsys, monkeypatch):
    # a 15-element antichain has 2^15 downsets, twice the default cap
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": 15})))
    rc, out, err = run_cli(capsys, "complete", "--op", "down")
    assert (rc, out) == (3, "") and err.startswith("error: ")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": 14})))
    rc, out, _ = run_cli(capsys, "complete", "--op", "down")
    assert rc == 0 and len(json.loads(out)["sets"]) == 1 << 14


def test_check_kurepa_text(capsys):
    rc, out, _ = run_cli(capsys, "check", "--suite", "kurepa")
    assert rc == 0
    assert out == KUREPA_TEXT


def test_check_summary_counts_per_size_only_per_instance(capsys):
    # lemma51 and kurepa report per statement, so their report counts
    # matching the corpus size (4 and 2) is a coincidence
    rc, out, _ = run_cli(capsys, "check", "--suite", "lemma51", "--max-n", "2")
    assert rc == 0 and out.endswith("\n4 instances: holds\n")
    rc, out, _ = run_cli(capsys, "check", "--suite", "kurepa", "--max-n", "1")
    assert rc == 0 and out.endswith("\n2 instances: holds\n")
    rc, out, _ = run_cli(capsys, "check", "--suite", "thm21", "--max-n", "2")
    assert rc == 0 and out.endswith("\n2+1+1 instances: holds\n")


def test_check_json_reports(capsys):
    rc, out, _ = run_cli(capsys, "--format", "json", "check", "--suite", "thm21",
                         "--max-n", "3")
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 9
    assert all(d["check"] == "thm21" and d["verdict"] == "holds" for d in docs)


def test_check_budget_exhaustion_exit(capsys):
    rc, out, _ = run_cli(capsys, "--budget", "1", "check", "--suite", "thm21-id",
                         "--max-n", "2")
    assert rc == 3 and "unknown" in out
    # thm21 and cor23 end at the root of every search, so spend no node
    for suite in ("thm21", "cor23"):
        rc, out, _ = run_cli(capsys, "--budget", "0", "check", "--suite", suite,
                             "--max-n", "2")
        assert rc == 0 and "unknown" not in out


def test_check_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("POSETIDEALS_BUDGET", "1")
    rc, _, _ = run_cli(capsys, "check", "--suite", "thm21-id", "--max-n", "2")
    assert rc == 3
    monkeypatch.setenv("POSETIDEALS_BUDGET", "100000")
    rc, _, _ = run_cli(capsys, "check", "--suite", "thm21-id", "--max-n", "2")
    assert rc == 0


def test_bad_env_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("POSETIDEALS_BUDGET", "abc")
    rc, out, err = run_cli(capsys, "check", "--suite", "kurepa")
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_negative_budget_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, "--budget", "-5", "check", "--suite", "thm21",
                           "--max-n", "2")
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_negative_max_n_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, "check", "--suite", "thm21", "--max-n", "-1")
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_check_failure_exit(capsys, monkeypatch):
    from posetideals import cli
    from posetideals.verification import CheckReport

    monkeypatch.setattr(cli, "run_suite",
                        lambda *a, **k: [CheckReport("thm21", "x", "fails")])
    rc, out, _ = run_cli(capsys, "check", "--suite", "thm21")
    assert rc == 1 and "fails" in out
    # under --suite all a failure outranks an unknown, in either order
    for mixed in ({"thm31": "fails", "cor23": "unknown"},
                  {"thm21": "unknown", "acc": "fails"}):
        monkeypatch.setattr(cli, "run_suite", lambda name, mixed=mixed, **k: [
            CheckReport(name, "x", mixed.get(name, "holds"))])
        for fmt in ("text", "json"):
            rc, out, _ = run_cli(capsys, "--format", fmt, "check", "--suite", "all")
            assert rc == 1 and "fails" in out and "unknown" in out


def test_check_all_concatenates_every_suite(capsys, tmp_path):
    for fmt in ("text", "json"):
        want = ""
        for suite in SUITES:
            rc, out, _ = run_cli(capsys, "--format", fmt, "check", "--suite", suite,
                                 "--max-n", "3")
            assert rc == 0
            want += out
        rc, out, _ = run_cli(capsys, "--format", fmt, "check", "--suite", "all",
                             "--max-n", "3")
        assert (rc, out) == (0, want)
        target = tmp_path / f"all.{fmt}"
        rc, out, _ = run_cli(capsys, "--format", fmt, "check", "--suite", "all",
                             "--max-n", "3", "--out", str(target))
        assert (rc, out) == (0, "") and target.read_text() == want


LEMMA51_UNKNOWN = [
    {"check": f"lemma51.{c}", "instance": "chains<=3", "verdict": "unknown",
     "witness": {"budget": 1}}
    for c in ("i", "iia_to_iib", "i_iia_to_iic", "i_iia_to_iid")]


def test_lemma51_reports_unknown_on_a_spent_budget(capsys):
    # a spent budget is an unknown verdict, not an error that hides the
    # other suites' reports
    rc, out, err = run_cli(capsys, "--budget", "1", "--format", "json", "check",
                           "--suite", "lemma51", "--max-n", "2")
    assert (rc, err) == (3, "")
    assert [json.loads(line) for line in out.splitlines()] == LEMMA51_UNKNOWN
    rc, out, err = run_cli(capsys, "--budget", "1", "check", "--suite", "lemma51",
                           "--max-n", "2")
    assert (rc, err) == (3, "") and out.endswith("4 instances: 4 unknown\n")
    for fmt in ("text", "json"):
        want = ""
        for suite in SUITES:
            _, out, _ = run_cli(capsys, "--budget", "1", "--format", fmt, "check",
                                "--suite", suite, "--max-n", "2")
            want += out
        rc, out, err = run_cli(capsys, "--budget", "1", "--format", fmt, "check",
                               "--suite", "all", "--max-n", "2")
        assert (rc, out, err) == (3, want, "")
        assert "lemma51.i_iia_to_iid" in out and "kurepa" in out


# sha256 of stdout, pinned so that a refactor which changes any byte of it
# fails here; a deliberate change of output updates these digests.
CHECK_ALL_SHA256 = {
    ("5", "text"): "f710e62e12fbf8817bffd3d82f47e841e4e8fb88602c814427fc2c24c3797825",
    ("5", "json"): "a194f0fe56d363ea8bcc8f4641a8f4f4c1eb8dd52800a3becff357ee72960734",
    ("6", "text"): "1da2775865c4c4d9d04af9d05828e4f16181052266ebd9c2404f67c374068bb1",
    ("6", "json"): "51fc888a56aabbdbc118422f0b566b67bc1c41005bc51f35fa660ec7460dd80d",
}
COMPLETE_N4_SHA256 = "83ef0503aac663905b6f740435925edbfa6198d223dcdd47cd640ab97c646681"
GEN_N6_SHA256 = {
    "text": "a901a054d323920d8042dcc3fa4485d6dbd04aaf1cd1b36be7c988df59b6187d",
    "json": "68d7fcc383e14e620cdd2c07847c209e88aabc860ca79c0b9700ca811680a2dd",
}


def test_outputs_match_their_pinned_digests(capsys, monkeypatch):
    for (max_n, fmt), digest in CHECK_ALL_SHA256.items():
        rc, out, _ = run_cli(capsys, "--format", fmt, "check", "--suite", "all",
                             "--max-n", max_n)
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    for fmt, digest in GEN_N6_SHA256.items():
        rc, out, _ = run_cli(capsys, "--format", fmt, "gen", "--max-n", "6")
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    # every family operator on every n<=4 class, in corpus then operator order
    h = hashlib.sha256()
    for _, P in generate_corpus(4).items():
        doc = json.dumps(poset_to_json(P))
        for op in ("down", "id", "Id", "chid", "chId", "fdown"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            rc, out, _ = run_cli(capsys, "complete", "--op", op)
            assert rc == 0
            h.update(out.encode())
    assert h.hexdigest() == COMPLETE_N4_SHA256


def test_counterexample_text(capsys):
    rc, out, _ = run_cli(capsys, "counterexample", "--name", "atoms")
    assert rc == 0
    assert out == "atoms(k=3): 5 elements, map kind strictly_isotone\n"
    rc, out, _ = run_cli(capsys, "counterexample", "--name", "chain-bundle")
    assert out == "chain-bundle(k=3): 8 elements\n"
    rc, out, _ = run_cli(capsys, "counterexample", "--name", "idemb-tower",
                         "--k", "1")
    assert out == "idemb-tower(stages=1): 10 elements\n"


def test_counterexample_atoms_json(capsys):
    rc, out, _ = run_cli(capsys, "--format", "json", "counterexample",
                         "--name", "atoms")
    doc = json.loads(out)
    assert doc["poset"]["n"] == 5
    assert doc["map"]["image"] == [0, 1, 2, 3, 5]
    assert doc["map"]["kind"] == "strictly_isotone"


def test_counterexample_tower_rejects_nonlattice(capsys, tmp_path):
    vee_doc = {"n": 3, "leq": [[0, 1], [0, 2]]}
    f = tmp_path / "vee.json"
    f.write_text(json.dumps(vee_doc))
    rc, _, err = run_cli(capsys, "counterexample", "--name", "idemb-tower",
                         "--in", str(f))
    assert rc == 2 and "lattice" in err


def test_ordinal_expr(capsys):
    assert run_cli(capsys, "ordinal", "--expr", "id(w+1)")[1] == "w+2\n"
    assert run_cli(capsys, "ordinal", "--expr", "w^2*3 + w + 5")[1] == "w^2*3+w+5\n"
    rc, out, _ = run_cli(capsys, "--format", "json", "ordinal", "--expr", "id(w+1)")
    assert rc == 0 and out == '{"expr":"id(w+1)","value":"w+2"}\n'


def test_ordinal_product(capsys):
    assert run_cli(capsys, "ordinal", "--product", "w,w1")[1] == "false\n"
    assert run_cli(capsys, "ordinal", "--product", "w,w")[1] == "true\n"
    assert run_cli(capsys, "ordinal", "--product", "max,w1")[1] == "true\n"
    rc, out, _ = run_cli(capsys, "--format", "json", "ordinal", "--product", "w,w1")
    assert out == '{"chains":["w","w1"],"cofinal_chain":false}\n'


@pytest.mark.parametrize("argv", [
    ("counterexample", "--name", "atoms", "--k", "1000000000"),
    ("counterexample", "--name", "chain-bundle", "--k", "1000000000"),
    ("counterexample", "--name", "idemb-tower", "--k", "1000000000"),
    ("check", "--suite", "kurepa", "--k", "100000000"),
    ("--format", "json", "check", "--suite", "kurepa", "--k", "100000000"),
], ids=["atoms", "chain-bundle", "idemb-tower", "kurepa-text", "kurepa-json"])
def test_huge_constructions_exit_3_before_building(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (3, "") and err.startswith("error: ")


def test_ordinal_usage_errors(capsys):
    assert run_cli(capsys, "ordinal")[0] == 2
    assert run_cli(capsys, "ordinal", "--expr", "w", "--product", "w")[0] == 2
    assert run_cli(capsys, "ordinal", "--expr", "w^^2")[0] == 2
    assert run_cli(capsys, "ordinal", "--product", "w,zzz")[0] == 2
    # nested deep enough to overflow the parser (3000) or the renderer (500)
    for depth in (500, 3000):
        expr = "id(" + "^".join(["w"] * depth) + ")"
        assert run_cli(capsys, "ordinal", "--expr", expr)[0] == 2


def test_render_poset(capsys, diamond_file):
    rc, out, _ = run_cli(capsys, "render", "--in", diamond_file)
    assert rc == 0
    assert out == ("digraph poset {\n  rankdir=BT;\n"
                   '  0 [label="0"];\n  1 [label="1"];\n'
                   '  2 [label="2"];\n  3 [label="3"];\n'
                   "  0 -> 1;\n  0 -> 2;\n  1 -> 3;\n  2 -> 3;\n}\n")


def test_render_escapes_labels(capsys, monkeypatch):
    # a quote or a trailing backslash must not end the DOT string early
    doc = {"n": 3, "leq": [[0, 1]], "labels": ['a"] ; evil [x="', "y\\", 'a"b']}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    rc, out, _ = run_cli(capsys, "render")
    assert rc == 0
    assert out.splitlines()[2:5] == ['  0 [label="a\\"] ; evil [x=\\""];',
                                     '  1 [label="y\\\\"];',
                                     '  2 [label="a\\"b"];']


def test_render_family(capsys, diamond_file, monkeypatch):
    _, fam_json, _ = run_cli(capsys, "complete", "--op", "Id", "--in", diamond_file)
    monkeypatch.setattr(sys, "stdin", io.StringIO(fam_json))
    rc, out, _ = run_cli(capsys, "render")
    assert rc == 0
    assert 'label="∅"' in out and 'label="{3,2,1,0}"' in out


def test_argparse_usage_exits(capsys):
    with pytest.raises(SystemExit) as e:
        main(["complete", "--op", "bogus"])
    assert e.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_seed_is_accepted_and_ignored(capsys):
    a = run_cli(capsys, "--seed", "7", "gen", "--max-n", "3")
    b = run_cli(capsys, "gen", "--max-n", "3")
    assert a == b


def test_runs_are_deterministic(capsys):
    a = run_cli(capsys, "--format", "json", "check", "--suite", "lemma51",
                "--max-n", "3")
    b = run_cli(capsys, "--format", "json", "check", "--suite", "lemma51",
                "--max-n", "3")
    assert a == b and a[0] == 0


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# A success and a capacity failure (exit 3), so the exit code is compared too.
ENTRY_ARGVS = (["gen", "--max-n", "3"], ["gen", "--max-n", "9"])


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "posetideals", *argv],
                          capture_output=True, env=child_env())


def assert_matches_module(cmd):
    for argv in ENTRY_ARGVS:
        want = run_module(*argv)
        got = subprocess.run([*cmd, *argv], capture_output=True, env=child_env())
        assert (got.returncode, got.stdout) == (want.returncode, want.stdout), argv


def test_module_entry_point():
    out = run_module("gen", "--max-n", "3")
    assert out.returncode == 0
    assert out.stdout == b"n=0:1 n=1:1 n=2:2 n=3:5 total=9\n"
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["posetideals"]
    # Call the declared target the way the installed console-script wrapper does.
    module, _, attr = target.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    assert_matches_module([sys.executable, "-c", wrapper])


# Verbs whose modules the package loads only when they run: the ordinal
# calculus, and hashlib for the invariant hashes of map_to_json.
LAZY_ARGVS = (
    ("ordinal", "--expr", "w^2*3 + w + 5"),
    ("ordinal", "--product", "w,w1"),
    ("--format", "json", "counterexample", "--name", "atoms", "--k", "3"),
)


@pytest.mark.parametrize("argv", LAZY_ARGVS, ids=["expr", "product", "atoms-json"])
def test_lazy_imports_load_in_a_fresh_interpreter(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv)
    got = run_module(*argv)
    assert (got.returncode, got.stdout.decode()) == (rc, out) and rc == 0


@pytest.mark.parametrize("code", [
    "from posetideals import CnfOrdinal",
    "import posetideals; posetideals.ordinals.cnf_parse('w')",
])
def test_lazy_package_names_import_in_a_fresh_interpreter(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env())
    assert (out.returncode, out.stderr) == (0, b"")


@pytest.mark.skipif(shutil.which("posetideals") is None,
                    reason="posetideals console script not installed")
def test_installed_console_script():
    assert_matches_module([shutil.which("posetideals")])
