import argparse
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from oracles import periodic_points_by_product
from starshift import cli, core_words, gray_factor, jump_action, subshift, tree_action
from starshift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable1:
    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "1", "--p-max", "1")
        assert code == 0
        assert out == "n\\p,1\n1,1\n"

    def test_first_nine_columns(self, capsys):
        # rows 7 and 8 read all ones when the family stopped at kappa^6
        code, out, _ = run(capsys, "table1", "--n-max", "8", "--p-max", "9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n\\p,1,2,3,4,5,6,7,8,9"
        for n, line in enumerate(lines[1:], start=1):
            assert line == f"{n},1,1,0,1,0,0,0,1,0"

    def test_paper_layout_groups_tail_columns(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "2", "--p-max", "20",
                           "--paper-layout")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n\\p,1,2,3,4,5,6,7,8,9,10-20"
        assert lines[1] == "1,1,1,0,1,0,0,0,1,0,0"

    def test_out_file_and_determinism(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "table1", "--n-max", "2", "--p-max", "10",
                   "--out", str(first))[0] == 0
        assert run(capsys, "table1", "--n-max", "2", "--p-max", "10",
                   "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_cap_exit_two(self, capsys):
        code, _, err = run(capsys, "table1", "--n-max", "20")
        assert code == 2
        assert "cap" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0
        assert out.count("PASS") == 6 and "FAIL" not in out

    def test_trivial_run_passes(self, capsys):
        assert run(capsys, "verify", "--max-n", "1")[0] == 0

    @pytest.fixture
    def fresh_word_caches(self):
        # w_n and language membership are cached by n and by word: a run
        # under a patched letter cycle must neither read nor leave them
        caches = core_words._build_w, core_words.language_contains
        for cached in caches:
            cached.cache_clear()
        yield
        for cached in caches:
            cached.cache_clear()

    def test_negative_control(self, capsys, monkeypatch, fresh_word_caches):
        # the middle letters one step out of their cycle D, C, B
        monkeypatch.setattr(core_words, "MIDDLE_LETTERS", "BCD")
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert "w-recursion      FAIL" in out

    @pytest.mark.parametrize("check, module, name, mutant", [
        # b and c trade their jump tables
        ("conjugacy", jump_action, "linear_jump_permutation",
         lambda real: lambda w, g: real(w, {"b": "c", "c": "b"}.get(g, g))),
        # the first two star positions trade their codes
        ("gray-tables", gray_factor, "phi",
         lambda real: lambda n: gray_factor.GrayTable(n, real(n).codes[[1, 0, *range(2, 2**n)]])),
        # the right-hand one of a window and its mirror reads complemented bits
        ("factor-tower", gray_factor, "psi_tower",
         lambda real: lambda k, x: [
             v if 2 * x.origin < len(x.letters) else v.translate(str.maketrans("01", "10"))
             for v in real(k, x)
         ]),
        # the same on a window and its mirror, but not prefix-nested
        ("factor-tower", gray_factor, "psi_tower",
         lambda real: lambda k, x: real(k, x)[::-1]),
        # one factor missing
        ("language-equivalence", core_words, "language_set",
         lambda real: lambda length: frozenset(sorted(real(length))[1:])),
        # a word without w_n among the factors of length 2^(n+1) - 1
        ("minimality", core_words, "language_set",
         lambda real: lambda length: real(length) | {"a" * length}),
    ], ids=["conjugacy", "gray-tables", "mirror", "nesting", "language", "minimality"])
    def test_each_check_fails_on_its_mutant(self, capsys, monkeypatch, check, module, name, mutant):
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        assert f"{check:16s} FAIL" in out

    @pytest.mark.parametrize("check, module, name, mutant", [
        # the tree tables of b and c trade places at level 17 only
        ("conjugacy", tree_action, "word_permutation",
         lambda real: lambda g, m: real({"b": "c", "c": "b"}.get(g, g) if m == 17 else g, m)),
        # the first two star positions trade their codes at n = 17 only
        ("gray-tables", gray_factor, "phi",
         lambda real: lambda n: gray_factor.GrayTable(n, real(n).codes[[1, 0, *range(2, 2**n)]])
         if n == 17 else real(n)),
    ], ids=["conjugacy", "gray-tables"])
    def test_checks_reach_past_level_16(self, capsys, monkeypatch, check, module, name, mutant):
        # both checks run to --max-n, up to the caps of their tables
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
        code, out, _ = run(capsys, "verify", "--max-n", "14")
        assert code == 0 and f"{check:16s} PASS" in out
        code, out, _ = run(capsys, "verify", "--max-n", "17")
        assert code == 1 and f"{check:16s} FAIL" in out

    def test_factor_tower_reaches_depth_8(self, capsys, monkeypatch):
        # the right-hand one of a window and its mirror reads complemented
        # bits at depths 7 and 8 only: the deepest towers of w_10 have
        # depth 6, those of w_12 depth 8
        tower = gray_factor.psi_tower
        flip = str.maketrans("01", "10")
        monkeypatch.setattr(gray_factor, "psi_tower", lambda k, x: [
            v if depth < 7 or 2 * x.origin < len(x.letters) else v.translate(flip)
            for depth, v in enumerate(tower(k, x), start=1)
        ])
        code, out, _ = run(capsys, "verify", "--max-n", "10")
        assert code == 0 and "factor-tower     PASS" in out
        code, out, _ = run(capsys, "verify", "--max-n", "12")
        assert code == 1 and "factor-tower     FAIL" in out

    def test_conjugacy_fails_on_a_word_of_the_wrong_length(self, capsys, monkeypatch):
        # w_n alpha: one star position more than phi(n) has codes
        build = core_words.build_w
        monkeypatch.setattr(core_words, "build_w", lambda n: build(n) + core_words.alpha_choice(n))
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        assert "conjugacy        FAIL" in out

    @pytest.mark.parametrize("max_n", range(1, 5))
    def test_factor_tower_compares_towers(self, capsys, monkeypatch, max_n):
        # w_3 and w_4 have no origin with the margin 8 of a depth-1 tower:
        # the check reads w_5, the 16 origins with a margin of 8 or more,
        # each window and its mirror
        calls = []
        tower = gray_factor.psi_tower
        monkeypatch.setattr(
            gray_factor, "psi_tower", lambda k, x: calls.append(k) or tower(k, x)
        )
        code, out, _ = run(capsys, "verify", "--max-n", str(max_n))
        assert code == 0 and "factor-tower     PASS" in out
        assert len(calls) == 32 and set(calls) == {1}


# sha256 of `schreier` stdout, which stays byte-identical for identical
# flags: --n N --format F, and --circular --n N --p P --format F
SCHREIER_LINEAR_SHA256 = {
    ("dot", 1): "201140965b47b3b567bfe30dca795e424d6dbd8eea9618de785a85a135f2b79c",
    ("dot", 2): "1c47a7d24d9b238ecb80c932630e5cf21cffa3feba476b350a0806d4f2f03c71",
    ("dot", 3): "66b8574b3ec5f247d511ce5883e0c102520d236f6313b35a7f1918f9f38f821c",
    ("dot", 4): "bd7e1603c404e9c12fbbdefdf65fa1dc7a3cec6ab4e79a0b742ebb0aeceb64c8",
    ("dot", 5): "41b95c88306ac513e085de2fb078fe2be664e417240ae1a0a4f880ac726a93c5",
    ("dot", 6): "a203dfaa12bea59b863114737943b0426df76262fb41dc13fab009e8e16035f2",
    ("dot", 7): "53764ac5f8d5880484193eab3ed455768db9781b8a618a9e5251fba646bdfec5",
    ("dot", 8): "d5eb6e2ea3d873d372024fef00ab7b732cd13eb510660d7cd480909da6c14ddc",
    ("dot", 9): "254e3d606985509adaaa46dfab8a738c9e9e466c9a44baf302f5ac234aae750f",
    ("dot", 10): "6465600d034d9bbc9800f24aa2fa6182f52214328529cc6e5e2395bdd76b18c1",
    ("dot", 11): "6bd5de89c19ee287225fe124f1cf1923128c99ec37adf7a9f4c30fee5fa0673d",
    ("json", 1): "4250fb947ea3c17bb0606f89b6f044405ec13a8dcb82fa10b839f1cf35605263",
    ("json", 2): "8c9aec18f37fe6dce9817f30d6a55a5b5325f6305734da04c733994acdee655f",
    ("json", 3): "93fd4f0bfa25890f2311674bb068a4fd162e59aa8012ae1a3dfabdb11d97af50",
    ("json", 4): "e2eb0365c6350147a89aa711150f10ebdf72ad67df62591c6f5d3700330ee9bc",
    ("json", 5): "999d2d467dc9bd3337f24a1cd47bbe0f2db2ea87919e02e307e7b4153d3b5f02",
    ("json", 6): "8cac91642de5dc84d9ffc18701b6b3d2a135165d6b68f856a775f2f83d30f3eb",
    ("json", 7): "818d3650fd279cc15ed126e04c5074a79be9ff8e854efbc5c15b8196a9e97245",
    ("json", 8): "c55cf2454552e00fb3cec709a09a16bbcfb638d4c97012117f56873c67bc105d",
    ("json", 9): "77567fcb452bbd656d058ec3898549475d830109392e9a15abacd8fb6fc9eb36",
    ("json", 10): "74f607f9c19099558fa76d3aaed1647dc261320589b4c86afddf20b770aadafd",
    ("json", 11): "561da5f917a70a18d7bbbcf26f71a4dc8a591d668ebbdafe41de0b6c8f40f1e8",
}
SCHREIER_CIRCULAR_SHA256 = {
    ("dot", 1, 1): "7f6b1cc269bace5ac1520a66a1be5aba73ab9b0501db5d1cfe6ebcffc1e142ad",
    ("dot", 1, 2): "afdb0fcc0747c1f245ec6203808729ea1764338359fcf42d355be73cf35128ed",
    ("dot", 1, 3): "20f04de70aa253d7d4c241da4b0158af7cf12e4ede3230bc42b689da0e865489",
    ("dot", 2, 1): "c9ee084050ce66f9ecf33f9d1a9e5bd07b4712e07859ff11f451240c2c8e7e3d",
    ("dot", 2, 2): "167de914054d67ac17c35e984629b9603d64ddf985c385d9d18ae9801072a26b",
    ("dot", 2, 3): "769811dba32b2c29fdbf097e6fd9f90611de13b7dd1aa30f6be618152257b86f",
    ("dot", 3, 1): "282ec89182a1f257348aa00593be616dc55ffd6a8655385ddf5146ec90e2ec72",
    ("dot", 3, 2): "93ba5288297421da5f302d6f57478e9d219c82cf968ea6d2b8b626aaa8b12967",
    ("dot", 3, 3): "5a2295408e4e0de07496fd2d793d314a51ceee678613625199854dfa0b44fa8d",
    ("dot", 4, 1): "f7262f97febf4edf4becb93be3698ff57d6a301d2665dd6655243d348feb3bdb",
    ("dot", 4, 2): "29a443c02bb8b3409b174b8efdb0e0ed5016bb48351e4e30454da6feae04331b",
    ("dot", 4, 3): "85a5c157c265050dd9184aba82c24e0ad7f0a8b318e8a737cf50db1d9c735b86",
    ("dot", 5, 1): "fa3050b2faca123c565d95b88b2df05d64211e9437115c2d6fc2e89d3273a117",
    ("dot", 5, 2): "88cb0afcf3c09bf3111915c21b663285b267270887b6a3e53b61513ee09a08dc",
    ("dot", 5, 3): "dcb7001724d60368d37fcf2d227b5f8cfc392b06c6aed7ac289838c65dc7534b",
    ("dot", 6, 1): "6c548a1c8e4cbce2a26c2c42839196c1464cf660036695cd0535cace8b4076fe",
    ("dot", 6, 2): "138100973fca8ca1784e441ad1d9a8d42fc372b1a3fb1ef9244969d6629139fa",
    ("dot", 6, 3): "a1b5b8ebeedd60979a63fa6064a5a251c03fb320ae4f2d3562fbe619a8acd1e6",
    ("json", 1, 1): "51f7c3a73c38db8492cfbe2f955d56450fb60147f02c85b223298651eb264c67",
    ("json", 1, 2): "2b8e2dbd5976f6302a945a557caa34cdc1990d43075ac62697ba5e93e25f678e",
    ("json", 1, 3): "645a413af6c6d38f8e090e3af35b0c11583311e1a183f8a35c863340f6b82ec4",
    ("json", 2, 1): "1f5a52a53b05d6ca9be35f22add540362eaddd086d1a27f75dba369878261367",
    ("json", 2, 2): "b1506393f745ef9f5e239c117516914a413e5deef46d7df91a34406a1ecf0d53",
    ("json", 2, 3): "c0545303ae1f1168c94d9f236e76fd070e19c51bb9e8e4e2e6464282b6ed537c",
    ("json", 3, 1): "e8b0a842cf7eae643e1bc07f8af088c1b7f2c4608585426bec4f979b867b1958",
    ("json", 3, 2): "8e9ea0b030a3ca979d3d658489aab80fde607f76dbd6e13d15fab42ff43fd538",
    ("json", 3, 3): "d6bbb89ef7a8ec9808d5ff9185cda5b2e7be9511f8b0e72800dae74a5ebfc1ad",
    ("json", 4, 1): "fbb01d3ed9fd6b036eaecb766f4cfd352f8eab2a4e7e82e427cf10606d1baa36",
    ("json", 4, 2): "6b875f16b624afe32bebb2be8ac9b16891195b8e37c151175861563815a64abd",
    ("json", 4, 3): "30fa06fa16f57db5bab7d5c2cb8b4273c9a966e5cd4bbfa0191dd8387c90e79d",
    ("json", 5, 1): "1aa834de78031b47cba00fa4aaddfa6e4c0370cb65680a0e71be19141f5f97bb",
    ("json", 5, 2): "000310aef5eb1536f6014fcb1de63a01213df66b18ad3f424a4244c3fdfa9a42",
    ("json", 5, 3): "cc25424701c6f07f1fba39449a7bd81c515eb9461d858793e89492811df5161f",
    ("json", 6, 1): "7d76c326f3080a940dfecd502902598390618c07bc0f105120bd6a91bbb7132e",
    ("json", 6, 2): "bf1503083923af75fb9fcbf27f64afee5c66c1c24ecac53a31efc347f52419c6",
    ("json", 6, 3): "2ab63f79c24d8e3cf2caaf904725f32c47ee256e0c5b90d547aa5c47050df9c0",
}

# sha256 of `stabilizer --source-n N --budget B` stdout, that of --seed
# 0..9 joined in order; None where each seed exits 2 for too short a word
STABILIZER_SHA256 = {
    (6, 1): "481db23931f1fd92008040fca242ef2b25cd586155f32cfc601f89f1b9d30757",
    (6, 2): "b6d10e826ef36729fb7ba09e64e4df9bc089233b1d497809b813b58c432c87bc",
    (6, 7): "92453e5e4ff582a22c89e1ddb055cda197f91fbd496610b5dbfc531199f5d44d",
    (6, 16): None,
    (6, 32): None,
    (6, 48): None,
    (13, 1): "b419e322bf983d6724c8ebfa592e061e05ca9e1bc24ba79e7b0810de6ed8eb4d",
    (13, 2): "41597a8ec28d5c769f2cdeced2de32e2a6a51e02c332a288ea0a638b1abef781",
    (13, 7): "5e31856f1bd323cf95681ee82441a0771c0aa1f92dbc9e79a328b0a1460a3c24",
    (13, 16): "8e0cfc3765186559e2926fc933eb7ca2c8e219afd8b0d2a72370cd45b4c2faf0",
    (13, 32): "502f7ac9ea9912aa381653a406f6bbd878ea94478d0ee24f96a699fed122f643",
    (13, 48): "9f477038ef36a17d9c57cfcd8cee6ee9fc7c0268c02a64ee2bba8ccaa6dcd346",
    (15, 1): "907e819ab7699351f5b7016722beb7dbc55f41b9a04f5fb6f234b3cd3be5d8ea",
    (15, 2): "625e749c3c31588b2969ea8347d5f8fec67eca8a96b0fd3518461169873acf15",
    (15, 7): "0db7a030a4516cdabf6c69597913a5dd2cd08a80443eb1f89bf317ce49a4dc14",
    (15, 16): "8792dc951f9e0d47bcd790596e0d8304358463461d2a8c13602c74011c74ff73",
    (15, 32): "af76bffdb8cb4b1026056707064314c86bb33aec3bd9b3b7257380a7ccf614fa",
    (15, 48): "52760971e80f580d6b2e2caadbcefa4c73c14132dfff8f6b556837bc97d06ffa",
}

# sha256 of `stabilizer --seed 0` stdout at the budget cap and at the
# source-word cap
STABILIZER_AT_CAP_SHA256 = {
    (15, 4096): "dec167959348a487f118a374f23ca795e49af7cc9f41231bad9127ca3baeb841",
    (24, 32): "a24a5ea9b487d6b49a27f29dcc8d3703f26364cd4ecdc884c188daa7630e7616",
}


# sha256 of (stdout, points file) of `sft union-demo --points-out F` and of
# `sft comb-demo --k K --points-out F`, keyed by K
SFT_SHA256 = {
    "union-demo": (
        "f356fbf0f2fae5b4e9b798c1022dca6fc9591ca374522d9b4bcb9f132dbe2b1a",
        "d99c0392cd471b4f9c5501cbb316ccd534e7bef4dfe3e6535b1e1233ba1c9541",
    ),
    2: (
        "08623382c277a4ed2907e9b2e8e8fb351aa1f22e5311267ba0cf7aead43bef2f",
        "5a257d1b427f2c3b40ef18fff783c2d21fce138ca1766ef4301debb531bc124f",
    ),
    3: (
        "d7a6adc842cdf3aa51cd0af260172196d70cbab306eac8e81208735aaf5defc6",
        "deb732a7d73d99f28f32b221b6bac3c70218e97510e2131f6876eedbe1b360dd",
    ),
    4: (
        "40f5bd6d6d4b4e69ba07eb9f17b2a09df2c5c89d0342f38f6a93ed49b6daa003",
        "1267f74fc6b41ccac2f094516cc865686d5a02f1e277adde74076f48ce15b206",
    ),
    5: (
        "51f753b9943e840908c47e123bb7bea094f0f369b9f95fe75fe79cd6bb44d2e2",
        "73eca50986b1f0ec615931ee096a130e1744031556c663d2c79a745587a28e2c",
    ),
    6: (
        "b120693e261f8019c15153fa317910f41e6d8a712ad0a0a0260aa72d0d358c14",
        "39c78041319048581ac2dc763635b7fe701efed5cd522015451f9db2cd71c2a3",
    ),
    7: (
        "998fdff7f37b3f20372dd056c55cad6ffef9db2da4b5c455f119ed07097f29e3",
        "3f708882a6e28f900b8bb3a14f3d6c789b40de3ea5e9a90baccc44078d17f43c",
    ),
    8: (
        "1182ffdd398c9dc978c1aff5422169f77dec33b03ad087addab048232867dde7",
        "e3cb5c63e4ac455aeafff646542cb02d37a6ae16ddb1339fde8056f4b8e51f7c",
    ),
    9: (
        "b2abf53afd73d2479f61629f89087ea9cbd60de6bd4ed781f52027a76a987be6",
        "ea9b1401cd03e7e44a69c14e845e5d29ddd8ed3c65e372577feaa1b313bdb3ad",
    ),
    10: (
        "01b601b5e28ed53bc9354044e6f00f4b6f18bd4371ec8868c882e3eac083f9db",
        "846e4dd5f461dd71301fced41ed4f115b291886f66660396a96d8340456ff286",
    ),
    11: (
        "6eca1d2ee16624f7ff8ac810a56e6304c0fcd56237e5103440c868ea315e1915",
        "0e0d730a9baea5f1ceff2e7047bf7d1fd1208941298a78cc4cf31163cef6c361",
    ),
    12: (
        "53da2226b095dc5c97d9c02ecd9e162807c8c0b3d0a32dd20d5f38673251bebe",
        "bf5b4e04d00c011a1670b16e7f6ca8a9da9265e9ffaebb21aaf8f9259a078f6c",
    ),
    13: (
        "8f350a47590548cdff69e5ce0a4e1ddd7184eb92cefb33f8f6226e1cd084cdb7",
        "eb332a8b59000dd9374de50d1ea7b08b0dbc457287cd423594375d32b5816be9",
    ),
    14: (
        "81ce832239fbc6ba1c8f13a688240db361b9e447f8df26e977bedce43c00f8d0",
        "ab567a3676b235f49ae76c359abee2121a57281ed680dfaf49557d6d4c30b8d7",
    ),
    15: (
        "2f82225dc544996fa5cc9874d04156599635927a387cd5d08a3b31e415ec252e",
        "6b4dffe2ad3783fe9d428c36450d964414bc1f6db536305b9ad5d064ed43cccf",
    ),
    16: (
        "addbea4347112146b6d7f0301184688ecde900c59c779e16c9c781a1183ae30f",
        "d06e82ab9d09f0b0c5580ddce99ca2e6f0f1c491090dbd1b42c2160bceb5f26d",
    ),
}


class TestSchreier:
    def test_linear_dot(self, capsys):
        code, out, _ = run(capsys, "schreier", "--n", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("graph schreier {")
        assert out.count("peripheries=2") == 1
        assert sum(1 for line in out.splitlines() if line.endswith(";") and "--" not in line) == 8

    def test_circular_double_cover_ok(self, capsys):
        code, out, _ = run(capsys, "schreier", "--n", "2", "--circular", "--p", "2",
                           "--require-action", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 8

    def test_circular_triple_cover_rejected(self, capsys):
        # row n first fails at kappa^n((ad)^4), named, not expanded
        for n in ("1", "2", "7"):
            code, out, err = run(capsys, "schreier", "--n", n, "--circular", "--p", "3",
                                 "--require-action")
            assert code == 1 and out == ""
            expected = f"action not well-defined: relator kappa^{n}((ad)^4) moves a starring\n"
            assert err == expected

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "schreier", "--n", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["vertices"] == ["*a", "a*"]

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_linear_stdout_is_pinned(self, capsys, fmt):
        for n in range(1, 12):
            code, out, _ = run(capsys, "schreier", "--n", str(n), "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == SCHREIER_LINEAR_SHA256[fmt, n], n

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize("require", [[], ["--require-action"]], ids=["plain", "require"])
    def test_circular_stdout_is_pinned(self, capsys, fmt, require):
        for n in range(1, 7):
            for p in range(1, 4):
                code, out, _ = run(capsys, "schreier", "--circular", "--n", str(n),
                                   "--p", str(p), "--format", fmt, *require)
                if require and p == 3:  # a relator moves a starring of (w_n alpha)^3
                    assert code == 1 and out == "", n
                    continue
                digest = hashlib.sha256(out.encode()).hexdigest()
                assert code == 0 and digest == SCHREIER_CIRCULAR_SHA256[fmt, n, p], (n, p)


class TestPseudoOrbit:
    def test_demo_passes(self, capsys):
        code, out, _ = run(capsys, "pseudo-orbit", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["checks"] == {
            "in_approximation": True,
            "action_well_defined": True,
            "outside_language": True,
        }

    def test_cap_is_usage_error(self, capsys):
        assert run(capsys, "pseudo-orbit", "--n", "12")[0] == 2


class TestStabilizer:
    def test_seeded_run_verifies(self, capsys):
        code, out, _ = run(capsys, "stabilizer", "--seed", "7", "--budget", "32")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["seed"] == 7
        assert len(payload["recovered"]) == 32

    def test_long_source_word_verifies(self, capsys):
        # w_22 has 2^22 - 1 letters, a language query past the old cap of 2^21
        code, out, _ = run(capsys, "stabilizer", "--source-n", "22", "--budget", "8")
        assert code == 0 and json.loads(out)["verified"] is True

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "stabilizer", "--seed", "3", "--budget", "8")
        _, second, _ = run(capsys, "stabilizer", "--seed", "3", "--budget", "8")
        assert first == second

    @pytest.mark.parametrize("source_n", [6, 13, 15])
    def test_stdout_is_pinned(self, capsys, source_n):
        for budget in (1, 2, 7, 16, 32, 48):
            outs = []
            for seed in range(10):
                code, out, err = run(capsys, "stabilizer", "--source-n", str(source_n),
                                     "--budget", str(budget), "--seed", str(seed))
                if STABILIZER_SHA256[source_n, budget] is None:
                    assert (code, out) == (2, ""), (budget, seed)
                    assert err == "error: source word too short for the requested budget\n"
                else:
                    assert code == 0, (budget, seed)
                outs.append(out)
            if STABILIZER_SHA256[source_n, budget] is not None:
                digest = hashlib.sha256("".join(outs).encode()).hexdigest()
                assert digest == STABILIZER_SHA256[source_n, budget], budget

    @pytest.mark.parametrize("source_n, budget", sorted(STABILIZER_AT_CAP_SHA256))
    def test_stdout_at_the_caps_is_pinned(self, capsys, source_n, budget):
        code, out, _ = run(capsys, "stabilizer", "--source-n", str(source_n),
                           "--budget", str(budget), "--seed", "0")
        assert code == 0 and json.loads(out)["verified"] is True
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == STABILIZER_AT_CAP_SHA256[source_n, budget]


class TestSft:
    def test_union_demo(self, capsys):
        code, out, _ = run(capsys, "sft", "union-demo")
        assert code == 0
        assert json.loads(out)["languages_equal"] is True

    def test_comb_demo(self, capsys):
        code, out, _ = run(capsys, "sft", "comb-demo", "--k", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["single_phase"] is True
        assert payload["periodic_point_counts"]["3"] == 1
        assert payload["periodic_point_counts"]["4"] == 0

    def test_points_report(self, capsys, tmp_path):
        report = tmp_path / "points.jsonl"
        code, _, _ = run(capsys, "sft", "comb-demo", "--k", "2",
                         "--points-out", str(report))
        assert code == 0
        lines = [json.loads(l) for l in report.read_text().strip().split("\n")]
        assert [l["period"] for l in lines] == list(range(1, 9))
        assert lines[1]["words"] == ["T_"]

    def test_union_points_report(self, capsys, tmp_path):
        union = subshift.union_sft(subshift.ZSft.from_forbidden("01", ["11"]),
                                   subshift.ZSft.from_forbidden("01", ["0"]))
        reports = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for report in reports:
            assert run(capsys, "sft", "union-demo", "--points-out", str(report))[0] == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        lines = [json.loads(l) for l in reports[0].read_text().strip().split("\n")]
        assert [l["period"] for l in lines] == list(range(1, 2 * union.order + 1))
        for line in lines:
            words = periodic_points_by_product(union, line["period"])
            assert line["words"] == words and line["count"] == len(words)

    @pytest.mark.parametrize("demo", sorted(SFT_SHA256, key=str))
    def test_outputs_are_pinned(self, capsys, tmp_path, demo):
        argv = ["union-demo"] if demo == "union-demo" else ["comb-demo", "--k", str(demo)]
        report = tmp_path / "points.jsonl"
        code, out, _ = run(capsys, "sft", *argv, "--points-out", str(report))
        assert code == 0
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (out.encode(), report.read_bytes()))
        assert digests == SFT_SHA256[demo]

    # from 22 on the comb alone would pass the enumeration cap: --k is refused first
    @pytest.mark.parametrize("k", ["17", "21", "22", "40"])
    def test_comb_demo_beyond_the_period_cap_names_k(self, capsys, k):
        code, _, err = run(capsys, "sft", "comb-demo", "--k", k)
        assert code == 2
        assert f"--k {k}" in err


@pytest.mark.parametrize(
    "first, second",
    [
        (["schreier", "--circular", "--p", "2"], ["schreier"]),
        (["table1", "--paper-layout"], ["table1"]),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_parser_keeps_no_state_between_calls(capsys, first, second):
    cli.build_parser.cache_clear()
    fresh = run(capsys, *second)
    cli.build_parser.cache_clear()
    run(capsys, *first)
    assert run(capsys, *second) == fresh
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "25"],
        ["schreier", "--n", "12"],
        ["schreier", "--n", "8", "--circular", "--p", "16", "--require-action"],
        ["stabilizer", "--source-n", "24", "--budget", "4097"],
    ],
    ids=" ".join,
)
def test_caps_come_before_any_word_is_built(capsys, monkeypatch, argv):
    built = []
    build = core_words.build_w
    monkeypatch.setattr(core_words, "build_w", lambda n, *a: built.append(n) or build(n, *a))
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: ")
    assert built == []


def run_to_exit(capsys, *argv):
    """``run`` for an argv that argparse ends: its exit code, stdout and stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


TOP_USAGE = "usage: starshift [-h] {table1,verify,schreier,pseudo-orbit,stabilizer,sft} ...\n"

TOP_HELP = TOP_USAGE + """
Starred-word actions, their tree factor, and SFT experiments.

positional arguments:
  {table1,verify,schreier,pseudo-orbit,stabilizer,sft}
    table1              relator survival table for circular words
    verify              run the invariant checks
    schreier            export an orbit graph
    pseudo-orbit        periodic pseudo-point checks
    stabilizer          reconstruct a hidden window from its stabilizer
    sft                 union and comb construction demos

options:
  -h, --help            show this help message and exit
"""

TABLE1_HELP = """\
usage: starshift table1 [-h] [--n-max N_MAX] [--p-max P_MAX] [--t T]
                        [--paper-layout] [--out OUT]

Survival of the relator family on the circular words (w_n alpha)^p. Each row
is read off one lift to the Z-cover: p survives iff it divides the gcd of the
relators' winding numbers, 8 on the whole family, so the ones sit at p in {1,
2, 4, 8}. --t T stops the family at the kappa^T seeds.

options:
  -h, --help      show this help message and exit
  --n-max N_MAX
  --p-max P_MAX
  --t T
  --paper-layout  group columns 10..p-max into one
  --out OUT
"""


@pytest.mark.parametrize(
    "argv, text",
    [(["--help"], TOP_HELP), (["-h"], TOP_HELP),
     (["table1", "--help"], TABLE1_HELP), (["table1", "--he"], TABLE1_HELP)],
    ids=["--help", "-h", "table1 --help", "table1 --he"],
)
def test_help_is_pinned(capsys, monkeypatch, argv, text):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert run_to_exit(capsys, *argv) == (0, text, "")


# usage errors read as the top-level parser's parse_args words them, also
# when the subcommand's parser took only part of the argv
@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'table1', "
                    "'verify', 'schreier', 'pseudo-orbit', 'stabilizer', 'sft')"),
        (["table1", "extra"], "unrecognized arguments: extra"),
        (["table1", "--", "--n-max"], "unrecognized arguments: -- --n-max"),
        (["sft", "comb-demo", "x", "--k", "3", "-y"], "unrecognized arguments: x -y"),
    ],
    ids=["empty", "bogus", "table1 extra", "table1 -- --n-max", "sft comb-demo x --k 3 -y"],
)
def test_usage_errors_are_pinned(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_to_exit(capsys, *argv) == (2, "", f"{TOP_USAGE}starshift: error: {message}\n")


def test_unknown_arguments_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_to_exit(capsys, "table1", "--frobnicate") == (
        2, "", f"{TOP_USAGE}starshift: error: unrecognized arguments: --frobnicate\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--n-max", "1", "--p-max", "1"],
        ["verify", "--max-n", "1"],
        ["schreier", "--n", "1"],
        ["pseudo-orbit", "--n", "1"],
        ["stabilizer", "--budget", "1", "--source-n", "6"],
        ["sft", "comb-demo"],
    ],
    ids=" ".join,
)
def test_one_parse_per_call(capsys, monkeypatch, argv):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **kw: calls.append(self.prog) or parse(self, *a, **kw))
    assert run(capsys, *argv)[0] == 0
    assert calls == [f"starshift {argv[0]}"]


def test_io_error_exit_two(capsys, tmp_path):
    code = main(["table1", "--n-max", "1", "--p-max", "1",
                 "--out", str(tmp_path / "missing" / "t.csv")])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["schreier", "--n", "0"],
        ["schreier", "--n", "17"],
        ["schreier", "--n", "12"],  # cap: p * 2^n <= 2^11 starring positions
        ["schreier", "--n", "8", "--circular", "--p", "16", "--format", "json"],
        ["schreier", "--n", "1", "--circular", "--p", "1025", "--require-action"],
        ["schreier", "--circular", "--p", "0"],
        ["schreier", "--circular", "--require-action", "--t", "-1"],
        ["schreier", "--n", "3", "--require-action"],  # would PASS a check never run
        ["schreier", "--n", "2", "--p", "5"],  # would print the linear graph of w_2
        ["stabilizer", "--budget", "-1"],
        ["stabilizer", "--budget", "0"],  # would "verify" the empty string
        ["stabilizer", "--source-n", "0"],
        ["stabilizer", "--source-n", "25"],  # cap: w_24
        ["stabilizer", "--source-n", "24", "--budget", "4097"],  # cap: budget 4096
        ["pseudo-orbit", "--n", "0"],
        ["pseudo-orbit", "--t", "-1"],
        ["sft", "comb-demo", "--k", "1"],
        ["sft", "comb-demo", "--k", "17"],  # cap: periods up to 4k pass 64
        ["sft", "comb-demo", "--k", "21"],
        ["sft", "union-demo", "--k", "99"],  # would ignore --k
        ["verify", "--max-n", "-5"],
        ["verify", "--max-n", "0"],  # would PASS every check having checked nothing
        ["verify", "--max-n", "25"],  # cap: w_24
        ["verify", "--max-n", "3", "--inject-alpha-bug"],
        # the truncated family would PASS what the whole family refuses
        ["schreier", "--circular", "--n", "7", "--p", "3", "--require-action", "--t", "6"],
    ],
    ids=" ".join,
)
def test_bad_input_exits_two(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in err
    assert "PASS" not in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["schreier", "--n", "3", "--require-action"],
         "--require-action checks circular starrings: it needs --circular"),
        (["schreier", "--n", "2", "--p", "5"],
         "--p counts circular repetitions: it needs --circular"),
        (["stabilizer", "--source-n", "3", "--budget", "1"],
         "source word too short for the requested budget"),
        (["stabilizer", "--source-n", "24", "--budget", "4097"],
         "--budget 4097 exceeds the cap 4096"),
        (["sft", "union-demo", "--k", "99"],
         "--k sets the comb's period: it needs comb-demo"),
    ],
    ids=["schreier", "schreier-p", "stabilizer", "stabilizer-cap", "sft-union-k"],
)
def test_refusals_are_error_lines(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--t", "1000000"],
        ["pseudo-orbit", "--t", "1000000"],
        ["pseudo-orbit", "--t", "9"],
    ],
    ids=" ".join,
)
def test_exponent_has_no_cap(capsys, argv):
    # the relator check stops where its tables repeat, whatever --t is
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


# integer flags of each subcommand: (small valid values, values over its cap)
_INTEGER_FLAGS = {
    "table1": {"--n-max": ([1, 2], [13]), "--p-max": ([1, 3, 10], [65]),
               "--t": ([0, 2, 9, 10**6], [])},
    "verify": {"--max-n": ([1, 2, 3], [25])},
    "schreier": {"--n": ([1, 2, 3], [25]), "--p": ([1, 2, 3], [2049])},
    "pseudo-orbit": {"--n": ([1, 2, 3], [9]), "--t": ([0, 2, 9, 10**6], [])},
    "stabilizer": {
        "--seed": ([0, 7], []),
        "--budget": ([1, 4], [4097, 10**6]),
        "--source-n": ([6, 8], [25]),
    },
    "sft": {"--k": ([2, 3], [17, 22])},
}
_SWITCHES = {
    "table1": ["--paper-layout"],
    "schreier": ["--circular", "--require-action", "--format=dot", "--format=json", "--format=svg"],
}
_NOT_INTEGERS = ["x", "1.5", "", "1e3", "0x4", "--"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_INTEGER_FLAGS)))
    argv = [command]
    if command == "sft":
        argv.append(draw(st.sampled_from(["union-demo", "comb-demo", "bogus"])))
    for flag, (valid, over) in _INTEGER_FLAGS[command].items():
        if draw(st.booleans()):
            value = draw(
                st.one_of(
                    st.sampled_from(valid + over).map(str),
                    st.integers(-3, 0).map(str),
                    st.sampled_from(_NOT_INTEGERS),
                )
            )
            argv += [flag, value]
    for switch in _SWITCHES.get(command, []):
        if draw(st.booleans()):
            argv.append(switch)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_any_argv_keeps_the_exit_contract(argv):
    # an exception escaping main is the in-process form of a traceback
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
