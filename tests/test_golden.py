"""Every pinned CLI output: the benchmark workloads and one table of argvs.

Each benchmark workload's argvs run through ``cli.main`` at the recorded
seed, with the benchmark's common arguments, and every case's digest of (id,
params, lhs, rhs) and the sha256 of the whole stdout must match
perfbench/golden.json; this is the check perfbench/one_pass.py makes after
each timed pass.

The record covers only the benchmark's grids, so PINS holds every other
pinned output: grids above the defaults, branches the record never reaches,
and the commands that verify nothing.  Each row runs through ``cli.main`` and
must exit 0 with the pinned sha256 of its stdout and of its case digests
joined in call order.  A passing suite's JSON line carries only its id,
counts and timing, so the stdout pins the verdicts and the case digests pin
every value.  A group's comment names the change its stdout was recorded
before, where it guards one.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import compident.identities as identities
from compident import symfun
from compident.cli import main
from compident.symfun import cyclotomic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def case_digest(report) -> str:
    record = [report.identity_id, report.params, report.lhs, report.rhs]
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()[:16]


def kept_reports(monkeypatch):
    # the list every later verify_case report is appended to
    reports = []
    verify_case = identities.verify_case

    def keep_report(*args, **kwargs):
        report = verify_case(*args, **kwargs)
        reports.append(report)
        return report

    monkeypatch.setattr(identities, "verify_case", keep_report)
    return reports


@pytest.mark.parametrize("name", sorted(GOLDEN["workloads"]))
def test_workload_matches_golden_record(name, monkeypatch, capsys):
    reports = kept_reports(monkeypatch)
    tail = workloads.COMMON_ARGS + ["--seed", str(GOLDEN["seed"])]
    exit_codes = [main(argv + tail) for argv in workloads.WORKLOADS[name]["argvs"]]
    stdout = capsys.readouterr().out
    recorded = GOLDEN["workloads"][name]
    assert exit_codes == [0] * len(exit_codes)
    assert [case_digest(r) for r in reports] == recorded["cases"]
    assert hashlib.sha256(stdout.encode()).hexdigest() == recorded["stdout_sha256"]


N = 10**120

# argv: (COMPIDENT_BUDGET or None, sha256 of the stdout, sha256 of the case
# digests joined in call order or None where no case runs)
PINS = {
    # polynomial mode above the golden record's k <= 28.  Stdout at k = 60 as
    # recorded before each sum was normalised once and eq29 slid its rows from
    # their neighbours; at k = 100 as recorded with eq29's rows built pass by
    # pass, one normalised Polynomial per eq13 and eq47 term, and eq17's rows
    # read through a kept-row cache
    "verify --id eq13 --k 1..60 --format json": (None,
        "9715f53505bd0b2e94033e4eadef6551e95179f389f51cfc7c22316b13543666",
        "1563ffddc80efaea94e6b24a95e57a0a465da1b91ed6c4408cb32722d5111554"),
    "verify --id eq47 --k 1..60 --format json": (None,
        "73ea25cf550c018e00492b5bb842a557c9a1eed326d255590c9f0c74c375e996",
        "3ec5637b03506289a8bc3ee1a3c27f724a44b51475177fe9816a0c141b079e5a"),
    "verify --id eq17 --k 1..60 --format json": (None,
        "6c5c2a47f64ab385b4f236036ff5d270334a5fc1471c49b0422b6b55ea78ee84",
        "d794490638403c031ffc6408f67ce5b9e8a12dd2e4df7f60139e957b0c1bc807"),
    "verify --id eq29 --k 2..60 --format json": (None,
        "eb9900b481a5edd2e6dc5ecf6a7ee2f0da55c4a5d4613e5d006bc555a88097d7",
        "18f30c72824136a5331796a005305b87531d1a9d713bc65dc9b5d622c53b6951"),
    "verify --id eq13 --k 1..100 --format json": (None,
        "f471f0baba1ea4cee4336edd029ecfd948322368e2f096c9434173536c69abcd",
        "fbd70fd00dec2514a8f288de3a2338e311d98c0dc957b6d19eac067db9b16387"),
    "verify --id eq47 --k 1..100 --format json": (None,
        "c4748e6d8439fb035828dedfc4439c624d02ca83cde6ceb8a565cda80795370e",
        "e213ac4c25285650a340de76c45b55e38dce891af39a594499fdcd298f836cf2"),
    "verify --id eq17 --k 1..100 --format json": (None,
        "169b53129aaa62d1189532307c7fb45d1550f2f003d2041a8a75ed24c5df636d",
        "b6f4fc7945d8c36c4a79383a4e6deaef68fa732cc51f8d002237fc6a27e5ffc7"),
    "verify --id eq29 --k 2..100 --format json": (None,
        "fe84e85acb050d5e476d7c3d829079a45ef06b54249f2526345cc7ea44c86fea",
        "79e501a2aec9fb0a102eacfe6297be29307bf2c4d19e38a30d5fc0e87a17e6f3"),
    # b = -a, where QGraded.reduced divides Phi_2, Phi_4 and Phi_6 out of phi_m,
    # a branch the golden record never reaches: stdout as recorded before the
    # q-pairs ran packed
    "verify --id pair5_eh --k 4..7 --a=1/2 --b=-1/2 --format json": (None,
        "43518d7c40df220db9c3dc106a7029b145b300afab0e6e8d71c9c9479e501448",
        "5fd9522b0824beb1adf0449eaf4a29b954c8b226c3a579ea36a8b17e1af23ac1"),
    "verify --id pair5_he --k 4..7 --a=1/2 --b=-1/2 --format json": (None,
        "1036918f2d2b4aaecffd28af21ab082e3cfd95bcd51391c55159685ebb75b6ca",
        "af87084b57b8007651cfd19a5c294da37d8c600f97082210f7d07f6c4efa803d"),
    # q-pairs above their default grids
    "verify --id pair5_eh --k 16..16 --samples 1 --format json": (None,
        "67952938246dbe97d2fa4f10e38622b2185aecfc28494e903b2f838df719fd3e",
        "246ada19b47532aa0505656c026173a3d48724b40d65b72fcf9dcb5cf98ac4f3"),
    "verify --id pair5_he --k 16..16 --samples 1 --format json": (None,
        "32288c7a3a5261d8c57c7bfc699d510dc5ad9cbe5631e2b03d012fa8c66a5e71",
        "0a55660d96d03ffa91edd3c952e0bf309a3cf2a637b20d91387dad18ff238560"),
    "verify --id pair4_eh --k 16..16 --format json": (None,
        "6e4b5ba12930c5545a256c440923263c652c7d8ece81f02d8fbad8aac267f1f6",
        "f0cf77619e4ef63eb7b3a2f03eecb49702e325f3fa41bd4bf933c09f6b8fdca5"),
    # Fraction pairs on both sides of the graded switch k * bits(s) <= 4096:
    # graded ints at k = 20 and pair1_he at k = 40, Fractions at k = 60.  Stdout
    # at k = 40 and 60 as recorded before the graded ints ran through the
    # transform's one loop
    "verify --id pair1_eh --k 20..20 --samples 1 --format json": (None,
        "913281cde92b51c86713a01bb7c9ac8994ab5f5c7f4404146b646d46a2dab875",
        "5bb1f032a978708b7f1ce611e35c211d528f7d8cc129cd3fe3fc064f1557ac40"),
    "verify --id pair2_he --k 20..20 --samples 1 --format json": (None,
        "7a920ee8e29a104e9ac31d5436cb3cf76e6bf3c09a7365c738f5d1e85cf70855",
        "79036b98577f3a345cca1a4e7cc0aac7174122151652fe54ce4f84f8f4e891ed"),
    "verify --id pair1_he --k 40..40 --samples 1 --format json": (40,
        "b10fc162463c7943f998fb0fc5fe1955d282c29b9b6a78c461d08184ee16459c",
        "744e33732df3fa7b1b96ec8890b6c8c6b3f597b8aebb0a89281a294a132258f3"),
    "verify --id pair1_eh --k 60..60 --samples 1 --format json": (60,
        "913281cde92b51c86713a01bb7c9ac8994ab5f5c7f4404146b646d46a2dab875",
        "f9d77517117d56cc04d23edd78b72db825c24a0541d8cb6e24fd6c38ec5beae9"),
    "verify --id pair2_he --k 60..60 --samples 1 --format json": (60,
        "7a920ee8e29a104e9ac31d5436cb3cf76e6bf3c09a7365c738f5d1e85cf70855",
        "bb93e254a1a0931c9fab0f42158b15e37def4ddf664de64253193b6448d45d00"),
    # pair3 above its default grid runs the packed Polynomial transform.  The
    # case sha256 at k, n <= 16 as recorded while pair3 ran the generic
    # transform loop on Polynomial products
    "verify --id pair3_eh --k 1..16 --n 0..16 --format json": (None,
        "e8c012cab715d2ae9eaac8264afb0c3d8ed38a32f4760ac94e1b2cd4a8845867",
        "2c22dccd5bae5029755e1722ecf7050bb9ca5c7081d7ee20b83738d8f13be053"),
    "verify --id pair3_he --k 1..16 --n 0..16 --format json": (None,
        "aea808ed14de7855d97c7490627c1ba16642b2150142c20820e20620883ad3b8",
        "b4d413f992b3abbb9d01a7794668337197056fe07e3da688b467c32b0f5e6aa6"),
    "verify --id pair3_eh --k 1..20 --n 0..20 --format json": (None,
        "e45f179f113ab85aa3162828921c895569d1138ed20185670d14bf52b47ea62f",
        "3ae35340eeae955057e12797bcceff4b4700b69a0f5beac0ec2947eb0e3b9533"),
    "verify --id pair3_he --k 1..20 --n 0..20 --format json": (None,
        "8c3528c9165d60ee29e98d612292d7e81d35cd90cd46c1b2025fa3164c0835a3",
        "eaad5fff5028e64223cd8035d6861672885217d29017b26035304175912120ae"),
    # transform suites over k-spans wider than their defaults, where one
    # binding's cases read the most prefixes of one run: stdout as recorded
    # while every case computed its own transform from k = 1.  lemma7 at
    # k = 15..16, where the enumeration walk first branches depth-first, as
    # recorded while the determinant ran dividing Fraction elimination
    "verify --id lemma7_roundtrip --k 15..16 --format json": (None,
        "f35db0884c6a129a37992a3cdd3aa79bb285f41d30be158ad6863369d7988963",
        "e946b7b41bd47863ef87b8a2f1663752c97eb22f4ad5da00871f9c1cfd2b206e"),
    "verify --id lemma7_roundtrip --k 1..16 --format json": (None,
        "99a4cc8fe5408688714b46df494b2c3d15baf8d9feb3b13f13b4a24e508b7f2a",
        "ea8e9dc8890cc5242602aaed39d20501fcf1e750b4a726246364d97a3da4f8ed"),
    "verify --id eq5 --k 1..20 --n 0..20 --format json": (None,
        "3f8cd6a36760d4cd02956e826dfd3b473b1af312a885bd31748feb948185feeb",
        "ba1f1c356852401343ec000916051d7b71dbea186564b1aeda21299cfc766ca6"),
    "verify --id eq42 --k 1..20 --n 1..20 --format json": (None,
        "34fac440268dee74a5ed319183c94bc3d6a440aaeaa3716711258a2175132481",
        "d2799aa255b0f5449621ac418e67f2457eb8a758bcde3181ed36aec4b970bdff"),
    "verify --id pair1_he --k 1..20 --samples 3 --format json": (None,
        "f44d3b47280c83fbe6990e40dc2af9fb08584548d61d88313256db797abb9cba",
        "53a72646021b3021306b6f9459e6b41f7c908c2f31e720496ae8c67618f31d37"),
    "verify --id pair5_eh --k 1..16 --samples 2 --format json": (None,
        "91b79652f46a2dc19a45091b6b8e90c7657995d37550a6f544a442820f41346a",
        "57cf5d394fafeac2b2da72db5c70a040e8819e00a1033e0ea5b4555aecd2073d"),
    "verify --id pair4_he --k 1..16 --format json": (None,
        "2dcff476a328433f4c9af5376043b7958e2f604cdb1282b34f0de146157aa6eb",
        "147a679400a9691ba8d0e67b33115ea9d2e99081b31fcd1501254e1e7613f5b0"),
    # the Rothe-Hagen sums and eq19 above their default grids: stdout of eq36,
    # eq37 and eq38 as recorded before their terms were summed as int pairs
    # over one common denominator
    "verify --id eq38 --k 1..40 --n 1..40 --format json": (None,
        "4f59c6f9a8ce6ce3178c6d1a624923e3075a3bd7bfae9e12f012ba7e31adb5f1",
        "773389a1b2bce109a3b5c2c5410b60e918de289b8cd3efa0fb8132308d12b8db"),
    "verify --id eq37 --x 1..30 --n 1..12 --k 2..31 --format json": (None,
        "33161a4577296890e7d8a064feacbba809030aa3a86b22795c3e39c4a45f5fb0",
        "5f3ed749b77ef9fc3c0cf809bacc0bc54698162a96e7a3b72d18689f5b887cb4"),
    "verify --id eq36 --x 1..12 --n 1..12 --k 1..24 --format json": (None,
        "2d5beba018e2b9e75a079a2629d993cc5f70027c7b5f4fdee42aa5094935f366",
        "baae21e32db29f8f365279e14bdb1f1e1c966c17669e0821a23f39ce8fa410ce"),
    "verify --id eq19 --k 1..60 --t 1..60 --format json": (None,
        "9af57b289a0ff0f40449eaa29efb941b202fe0e6b3b783714c377ff6a2d93dc8",
        "e700ff15ba6af04f5bd01d4eca10d63550812d2aa329a5f02592f820857c296b"),
    # exact sides at n = 10^120, over CPython's 4300-digit int <-> str limit.
    # Each Rothe-Hagen term's denominator cancels mostly into its own
    # numerator: stdout as recorded before the terms were summed as int pairs
    f"verify --id eq13 --k 40..40 --n {N}..{N} --format json": (None,
        "4a86738deb49dbdfc7aa800ec64605f1ac9540ca3ce9323d809fbb66764da2b0",
        "d155e8c3ecc20faa54cc822eccf18f49b26e6c942e0e205f804789af78cfeceb"),
    f"verify --id eq38 --k 1..30 --n {N}..{N} --format json": (None,
        "63a78f651d4b0317deb17a4969c352af1af3d6468bb63a2794ccf49c1e34241d",
        "148bb48938ac2730b04fa0569e08c84396e1a63ad622a020cb25ecd942cad666"),
    f"verify --id eq37 --x 1..5 --n {N}..{N} --k 2..30 --format json": (None,
        "20e87e387555277a0b729aa17bb6c617de929f4e19473781da70d9f8be604ac4",
        "d9b84bf154848e25e3936e6610d7c5151950a8a364d4ed5624023aca667ff6ab"),
    # commands that verify nothing make no report.  The catalog's stdout as
    # recorded while the descriptors were dataclasses
    "list --format json": (None,
        "09d82b7ca3ae1ebb7725597fc0f350f25427a711c2b8f0d1f4c04c829970a19d",
        None),
    "list": (None,
        "d2dd0f9569c6195b1afba085230adfc0e3508fed8efdf28cfdecd89e6ca88c84",
        None),
    "table stirling --n 40": (None,
        "f91cfaf640f6fad6b53c0ef28c548df14efeb984661b80ed5504f20a9b438199",
        None),
    "table stirling --n 40 --format json": (None,
        "00b8b7d068e5f8535aedba50da2617965670bbcafa13ce0557560c5cc5714a13",
        None),
    "table bernoulli --max 30": (None,
        "582100f42e1e0023bcee0548a64d4f8d72e6d16888b74bd42f9ed5e6553265b6",
        None),
    "table gaussian --n 30 --k 15": (None,
        "c528a3a670db7f7bd10bde3166d7f71a3ac905b578bb1dea1f1a02f9b5a4e5d9",
        None),
    "compositions 6": (None,
        "bb7d56a0ca4e1b2f22c21ae4679bfe0b56e745b5ff51bf28d5568ac92132cea3",
        None),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digests(argv, budget, monkeypatch, capsys):
    """The sha256 of argv's stdout and of its case digests (None if none)."""
    if budget is not None:
        monkeypatch.setenv("COMPIDENT_BUDGET", str(budget))
    reports = kept_reports(monkeypatch)
    assert main(argv.split()) == 0
    stdout = capsys.readouterr().out
    joined = "".join(map(case_digest, reports))
    return sha256(stdout), sha256(joined) if reports else None


@pytest.mark.parametrize("argv", PINS, ids=lambda argv: argv.replace(str(N), "N"))
def test_cli_output_matches_its_pins(argv, monkeypatch, capsys):
    budget, *want = PINS[argv]
    assert pinned_digests(argv, budget, monkeypatch, capsys) == tuple(want)


@pytest.mark.parametrize("identity_id", ["pair5_eh", "pair5_he"])
def test_a_wrong_cyclotomic_factor_shows_in_the_case_digests_only(
    identity_id, monkeypatch, capsys
):
    argv = f"verify --id {identity_id} --k 4..7 --a=1/2 --b=-1/2 --format json"
    budget, stdout_sha256, cases_sha256 = PINS[argv]
    # Phi_4 + 1 = q^2 + 2 divides nothing, so Phi_4 stays in both sides
    wrong = cyclotomic(4) + 1
    monkeypatch.setattr(symfun, "_cyclotomic_cache", (*map(cyclotomic, (1, 2, 3)), wrong))
    got_stdout, got_cases = pinned_digests(argv, budget, monkeypatch, capsys)
    assert got_stdout == stdout_sha256  # the verdicts do not see it
    assert got_cases != cases_sha256
