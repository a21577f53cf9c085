"""Golden outputs, byte for byte: every suite x value group x seed, and
every JSON-printing command on seeded inputs (``COMMAND_GOLDEN`` below).

The sha256 digest of the JSON report of
``run <suite> --depth 5 --count 3 --format json --group <group> --seed <seed>``
and its exit code were recorded before the closed-form kernels replaced
the tower and full-group chain; refactors must leave every cell unchanged.
(``happrox`` needs the rational group: its other cells are usage errors,
exit 2 with empty output.)  The ``real`` cells, which pin the float
fallback that draws one ``rng.uniform`` per entry, were recorded later, on
the code as it stood before the exact groups' draws moved to one
``getrandbits`` loop; they are the same on CPython 3.10 to 3.13.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from cocycle_lab import sampling
from cocycle_lab.cli import main
from cocycle_lab.space import binary_bases
from cocycle_lab.values import group_from_tag

GOLDEN = {
    ("density", "int", 0): (0, "7672db3b434cc06bfd7e3ae5a4deacd63e5174ef8cb61061422ff914f66a14c1"),
    ("density", "int", 1): (0, "9a1a2a46ed31254dca6edb7e1ece9814f3cec4ee841cdcd2987bab13faf0c48d"),
    ("density", "int", 2): (0, "89906d2c8b02a2a809ffb569b9925fac9e41c84414a7954ca9b731bf93be5170"),
    ("density", "rat", 0): (0, "a2fa305e2ed05b689228f0c00458dccc70ca41648262b41180dfa8a3ac79b984"),
    ("density", "rat", 1): (0, "dc03f0895ed93a4ee252a1e74f0ab591f0098e9756d124ceb74d085a7a8dab20"),
    ("density", "rat", 2): (0, "81641cc40c8197980d430a0fb3e7d3cda3611ad6188ba5cdbe283a80dd4b527b"),
    ("density", "dy", 0): (0, "76bb7a475214c07047b53d3ad4e26163fd3c020885c93523ffbc1cef505a6a74"),
    ("density", "dy", 1): (0, "7785e050bb1d025f6e55891677ed37bb094dab6660e9b895a8a7c02681c32eb3"),
    ("density", "dy", 2): (0, "0cbd09384f2428e78a7297afe020894c81fdbc930bc19f2cec804920c9a566ac"),
    ("density", "mod:5", 0): (0, "890e2e571ee7c76c4743d2449ed41c210bcafa4d6b2f006a265c3b9ae08c32a9"),
    ("density", "mod:5", 1): (0, "cd3e24ca89079c6781b6a547b1f0d4e61885b2c1d9b6996e6ada3f30036947bd"),
    ("density", "mod:5", 2): (0, "6110cf398904100257356ec12faae51c72a2e97a70400fa05b45373efee6b3e9"),
    ("density", "vec:2", 0): (0, "92cc1475a6b0ff37bde8e588b4aff71f842ba6af6282533888f2f41b770c8838"),
    ("density", "vec:2", 1): (0, "499f0d7b4d55aa0639b3d6cd80c0d2a4a47d18ff69192bca6c9a63a4c99e336e"),
    ("density", "vec:2", 2): (0, "9cc147f9769fa268685811c3ea311a61bbe792dff3adb1231ed9ba846d8807e5"),
    ("gh", "int", 0): (0, "5f575b55acfa417d129ddd46f1da013023b0feb30294f3ba0f2ab4a017edec55"),
    ("gh", "int", 1): (0, "89e68b37bc623191dc36b1788de6d429fb74a4821ffa16963c46b4bf2b2b00c0"),
    ("gh", "int", 2): (0, "5bc61081cde35e265c13abc48780f12af94771b0e07852adc4b03d40b89bf4f8"),
    ("gh", "rat", 0): (0, "2e5fc172a231ce6f22258105598a5f4a0bf89538d1974f120dd1b165d0976150"),
    ("gh", "rat", 1): (0, "7f453e07c323bfb265036a7c2e58ac3c8338fc5716b0e4d9823e45b30e403428"),
    ("gh", "rat", 2): (0, "f91129c9425349c100977f8a00a1dfa27458109710192a96bfb4f7d8f7c14ac0"),
    ("gh", "dy", 0): (0, "e087485da742b18b49ab5692972d021e64f11ac36a9dc244c18ba6c3d7c0f7f0"),
    ("gh", "dy", 1): (0, "07324002cdf824709bc07846ca05ca4de0090a2f85cc25761e40a4e2242b517a"),
    ("gh", "dy", 2): (0, "0b034ddd2347313d270bed5b13fe141f679c3906648595f02f1ab974dd01751d"),
    ("gh", "mod:5", 0): (0, "57592cefb6c807f2583a8cb34792cb20c7103c31c7133fa78bf371f9b02c14d2"),
    ("gh", "mod:5", 1): (0, "3406e7230950db95ee7eb39bab7be6dba9a307f81e75ec651ce5d9898c6c9396"),
    ("gh", "mod:5", 2): (0, "c0ee96e988ce23c7a7187dad07b8ce9c61a7ea48766dfa39110615c3fd77d5f1"),
    ("gh", "vec:2", 0): (0, "09e18b81776e2a1a8bdbfd1f8fd7f7e3efb6d40a9c3a9719cf69908a80b82510"),
    ("gh", "vec:2", 1): (0, "f7ed2810b1ad174ab2c3b223b8e6dbd3f9cba4b87eb58adfb39e50471f8d8033"),
    ("gh", "vec:2", 2): (0, "4c4f38dcb6b3f2b4bbd81c2b039607fbde259f5291ba11603b53d4c1b1ca93b4"),
    ("happrox", "int", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "int", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "int", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "rat", 0): (0, "ee3ba0dad8b667c3d4bd13977762ea1510e56d804dfbac09fbf94d57cf2280f3"),
    ("happrox", "rat", 1): (0, "ef78977e1cb756028c3e533e8b459b0d7278b4e88a4dd88044c84bf164e18bc2"),
    ("happrox", "rat", 2): (0, "59aa87be682c6cd6c68d8000dd91f9b539dcb76b5bb54fd14c67415f7290d93a"),
    ("happrox", "dy", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "dy", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "dy", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "mod:5", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "mod:5", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "mod:5", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "vec:2", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "vec:2", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "vec:2", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("odometer", "int", 0): (0, "fb9640b0149f82497f0525f6973feea4216841f1aac3ad278664494f57b9bd07"),
    ("odometer", "int", 1): (0, "3ccd2c9ebda18a198a6fc33c9bd313d8b43fcaa2d41466396771e469d63fd90c"),
    ("odometer", "int", 2): (0, "a0d09d189cabc0a7b8072dd26845573f44fd1c0ae9ff0b578dceaaa689bd0654"),
    ("odometer", "rat", 0): (0, "086a6e1ed513fcf884c13bc4ec35a4878145875ba6d54897c006aa7c22813750"),
    ("odometer", "rat", 1): (0, "2155bfb069d32a4a026ab8245480d8f6af4fcc1c9205c4febbe8f370b7968071"),
    ("odometer", "rat", 2): (0, "8f06dba832d6bfafefa940416631626cb3538158904818eeeca859ae38cee8bd"),
    ("odometer", "dy", 0): (0, "f7df948c66d8b67a5e2bd37f77e8c77b5aa5aff02388b5e5d323cd541099e573"),
    ("odometer", "dy", 1): (0, "eef8b1f626456f9e0c031944fe3f862b6353df13082787d8b38f599cb932585e"),
    ("odometer", "dy", 2): (0, "94b70d6ffed5dd03118774248c455b15208edfea02586ff4e0b554ea0335cc93"),
    ("odometer", "mod:5", 0): (0, "8391245a17496869d16980af4ab793da50019e1875c28394f28a7e7eb80efeaa"),
    ("odometer", "mod:5", 1): (0, "2b439ffc8f70374af76eaae3f2fb67da63e2f82b8e9b34bc9d7008ffa29ff9b2"),
    ("odometer", "mod:5", 2): (0, "f8e684ad0120b54a0bc4e211a68ffab15392b860bc12096c316687392e1ac020"),
    ("odometer", "vec:2", 0): (0, "24b470dad93641a1fb73419d1e3bf83676811b6d8dfe6d113db3d73abb5425f4"),
    ("odometer", "vec:2", 1): (0, "2a6e79a7aa5c1a28578fe0408101dca47fd866ccba896ad313a549ef7604b363"),
    ("odometer", "vec:2", 2): (0, "24b6c94f592f7bd2d0036eb67b2c2737e83e22fe52287442761658daafcb6597"),
    ("topology", "int", 0): (0, "86eed5209959f4a3ea99bca22e41e0dbefc6849daa51c21670c2dc30cd8aed22"),
    ("topology", "int", 1): (0, "8e2dd9a8c755f8a61a5e31e054da085e5c39ee18015a8a81b9216a9960890009"),
    ("topology", "int", 2): (0, "3abed93b106ee2d280ebff91d797a3f8b813915dc95ab9450ef9acc418056b61"),
    ("topology", "rat", 0): (0, "c7dbdac3bb5e096d59b59da238d545029c39051cf5eb06e6e56844c13a337228"),
    ("topology", "rat", 1): (0, "6308216e93182b31d5b1d21673f7e9cd34f014e2a5076ac574f4e55753c6a253"),
    ("topology", "rat", 2): (0, "f49455e5064b2d5f724a99ff5d3d2f9ce898e3203f5118053fd8873236ba88f4"),
    ("topology", "dy", 0): (0, "250bc00e4e0b19f4f9b89883948a6f626104db079a214d5981926fb3d4f4eb69"),
    ("topology", "dy", 1): (0, "aa2c0499bb45f67514c90de8e34d988c5df2c807a8b7ea66d35cd3b2fd50e2c8"),
    ("topology", "dy", 2): (0, "88f138041c8b74cb1551abcb4fe71bf874374e2bd241ad8f7b6092c3dc39b3d1"),
    ("topology", "mod:5", 0): (0, "a0bd0504a2548a481f2693c8c4ad8acdb64db550fbda62aef61afdffd9ea650f"),
    ("topology", "mod:5", 1): (0, "c25dee8926fbcef36a77d0fa523b2542fdf0b588bf74d3a2e22f029e0b73516e"),
    ("topology", "mod:5", 2): (0, "e892510215adcd78eed78a0fd11731b30a6af072d1d834139c649d7e0b24adfe"),
    ("topology", "vec:2", 0): (0, "4c29c908145446553b4f03efc10cb93e9ef32f6dfd56ed3bbc65e062a1686da7"),
    ("topology", "vec:2", 1): (0, "bba6f143832b7cc87b8a968863b17b6f68a096b03ac07c00dcf03b1ba5e81eb1"),
    ("topology", "vec:2", 2): (0, "204417997146fe324f0beeccbb3b0b5ca09aecd190a9ac165569a5863509b4ac"),
    # The float fallback (one rng.uniform per entry), recorded before input
    # sampling moved to one getrandbits draw loop.
    ("density", "real", 0): (0, "6b827c0cdf429ec01245cd7f87a3277b1bb682f56810feb355fd1e2d530bac99"),
    ("density", "real", 1): (0, "bd3b1ed5b80a26fbd3c6a052c0b39d0c7bcb1e18e9bc4e1f12d0884e70ed7048"),
    ("density", "real", 2): (0, "78f41bf05e37768f01724c6456b08810cb527d606b5818013949c14fb6879b54"),
    ("gh", "real", 0): (0, "b1652b3e862ac7ef061bcbb7339fffb8b62cffd93015a272fe4c98a24c2541e1"),
    ("gh", "real", 1): (0, "c6d2916dce3c592ecbcfc0d90ff54b395ef62a73fcd5733e4214e64e9a10a983"),
    ("gh", "real", 2): (0, "a78efbb57820841483cf02ab3b18ba8da31ccf0c2e8d904bce3274de1535656f"),
    ("happrox", "real", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "real", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "real", 2): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("odometer", "real", 0): (0, "81ba4e12dedc4ae8ef1228067569389600027dfce8d170ba8a1bcc3b32be5be8"),
    ("odometer", "real", 1): (0, "9c3d139c95ba5c1abfbd8185b1f98166b6d2dccdd63547bbdfca85e558d41e45"),
    ("odometer", "real", 2): (0, "a615f53371aaba39b33f1d8358ff852a103e8e32509218b3ef1cbe7f4de1910e"),
    ("topology", "real", 0): (0, "65a7e0530c72d323a681017017d691c227fbac5168d7d66483a3f6b71a542451"),
    ("topology", "real", 1): (0, "d678faaf791566610c6ea029ffbf386877cbcf980a0e70fb09f660ad2f10d76e"),
    ("topology", "real", 2): (0, "fe622e6cd4a7ada7d4a2478b357d314dbe0ba722b79f33187faa11270c9da464"),
}


@pytest.mark.parametrize("suite, group, seed", sorted(GOLDEN))
def test_golden_report(suite, group, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(
            ["run", suite, "--depth", "5", "--count", "3", "--format", "json",
             "--group", group, "--seed", str(seed)]
        )
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[suite, group, seed]


# The JSON outputs that are not reports: every command that prints JSON, on
# seeded depth-5 inputs.  ``gen`` is a sampled generator table, ``cob`` a
# sampled coboundary (so ``cocycle solve`` prints a certificate) and
# ``family`` a three-generator involution family; the inputs are written
# compactly and read back by the CLI.  ``gamma happrox`` refuses ``real``,
# ``mod:5`` and ``vec:2`` (exit 2, empty output).  Recorded before the
# JSON writer replaced ``json.dumps(indent=2)``.
COMMANDS = {
    "eval": ("gen", ["cocycle", "eval", "--j", "3", "--x", "0,1,0,1,1"]),
    "solve": ("gen", ["cocycle", "solve"]),
    "solve-cob": ("cob", ["cocycle", "solve"]),
    "gh": ("gen", ["cocycle", "gh"]),
    "gh-cob": ("cob", ["cocycle", "gh"]),
    "density": ("gen", ["cocycle", "density", "--format", "json"]),
    "verify": ("family", ["gamma", "verify"]),
    "roundtrip": ("family", ["gamma", "roundtrip"]),
    "happrox": ("family", ["gamma", "happrox"]),
}


def _command_input(kind, group, seed):
    rng = random.Random(seed)
    bases = binary_bases(5)
    if kind == "gen":
        return sampling.cylinder_function(rng, bases, group_from_tag(group)).to_json()
    if kind == "cob":
        return sampling.coboundary_generator(rng, bases, group_from_tag(group))[0].to_json()
    return sampling.invariant_family(rng, 5, 3, group_from_tag(group)).to_json()


def _command_output(tmp_path, command, group, seed):
    kind, argv = COMMANDS[command]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(_command_input(kind, group, seed)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--input", str(path)])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


COMMAND_GOLDEN = {
    ("eval", "rat", 0): (0, "ddb93da5929d7490d887bfa0367fab80836d500e8a8cdbf831a9b277d9cce6d3"),
    ("eval", "rat", 1): (0, "502b30b8cf6480a16ec1926d72706dc6b089f8737efc09234228e8a035afabac"),
    ("eval", "dy", 0): (0, "700f36841c46f67c372d7cb93c71750b45e6c06460ca84e2bd74dbcd21e9d026"),
    ("eval", "dy", 1): (0, "82bcb2b086992f718f46a20930c0a5025832c5a9fd8f28af5110832e4d3c68ea"),
    ("eval", "real", 0): (0, "71774c8627229193a1b7782fa6c654fdc36e1ec16b05f47cb80de0c51cfb843c"),
    ("eval", "real", 1): (0, "48084ccb794690f6b1bf52798f9e9586f7bc7efa87cd1ed16d83f9dbe8796131"),
    ("eval", "mod:5", 0): (0, "0a69d5c54ecdbb32d84698a309c5f8dbecad77c18e20a4f99f4e40de8110431e"),
    ("eval", "mod:5", 1): (0, "0a69d5c54ecdbb32d84698a309c5f8dbecad77c18e20a4f99f4e40de8110431e"),
    ("eval", "vec:2", 0): (0, "a403cfbbc7a8ff9b9077d50ed94bda1a4bcdc15f77946ea144d4da4bbe83ff63"),
    ("eval", "vec:2", 1): (0, "99cfaa1336ca688a8bedebbe2f125ba449019a3f251950751b476603d7905c17"),
    ("solve", "rat", 0): (0, "a53066adcf4507db543975c0cda7d6a0208c24940845764d3542ee9f6250ae2e"),
    ("solve", "rat", 1): (0, "890b6f32f90269c4eaa3c7f47afa532d362341474b1fd9eb6f4f8f6670106214"),
    ("solve", "dy", 0): (0, "f82a7b586480dafadc2af5221cbbda77b314b7ffd0ad45ca03ed95c04de52ff1"),
    ("solve", "dy", 1): (0, "fcd8c7201af4ba4008be0befe0f2a0a4ed0e88b2de2cdb0a3f5d0d5ca36f4815"),
    ("solve", "real", 0): (0, "868b9dbca5975574d2537b227b289bbe6e72e689de621e1880e17d252764f6d6"),
    ("solve", "real", 1): (0, "abc4e452e2eceef73d54dfd8098d42293b84b1dc0611f0b4de4a21e1b77ea738"),
    ("solve", "mod:5", 0): (0, "589061d1b88bc5d5fc1700ca839ad4ee49d0768e84f494215fe67b1a3c9774ef"),
    ("solve", "mod:5", 1): (0, "589061d1b88bc5d5fc1700ca839ad4ee49d0768e84f494215fe67b1a3c9774ef"),
    ("solve", "vec:2", 0): (0, "dd4840827f265d2cd1b41e8c33c151c075e0f71e38bbb2c13b8a9e8555fb8ca3"),
    ("solve", "vec:2", 1): (0, "f1ce3b60907d87e5a59abdf307bfffea8cb7bcf1d5be7886ee31c01c3b0aa82a"),
    ("solve-cob", "rat", 0): (0, "825678061f81e96ec448f23098dbee28223f7f1c7c6b4a25265535d2e84fc4d4"),
    ("solve-cob", "rat", 1): (0, "e4592f2e1bf77f0ed7e28e6b0dd2837f23350fefa3fb93fa3587963936ef77c0"),
    ("solve-cob", "dy", 0): (0, "d2c27e426cb86b5fd54639c6de4ea5fde7b665453b578d0cea742929d90f77f7"),
    ("solve-cob", "dy", 1): (0, "f30b88d4e4f0aa1abd6167a8c530bb76e8cabcefd9736b20c07ba7ff13374a3e"),
    ("solve-cob", "real", 0): (0, "2cabb0d80d7e8dcd4a4fc230fe7bbdfad82753169e1bb45a15d29d5a8ec1677e"),
    ("solve-cob", "real", 1): (0, "60546474da3c8f718f0951f9cd43a5f1949fcf0428fcb5b8c1c4c253c1f1fb8c"),
    ("solve-cob", "mod:5", 0): (0, "49138a8e60ca680a93dde2e9efb21d1470e440388548f8bd16d44c956bb43a7c"),
    ("solve-cob", "mod:5", 1): (0, "d15c040ec535feca66f2bcd0eaf6e906f11a8df9a182cd3854b066c3580eab52"),
    ("solve-cob", "vec:2", 0): (0, "b70734c04d1cae14226b7e66c197ec19d8630c6739756849c01edc69982b3f21"),
    ("solve-cob", "vec:2", 1): (0, "e59070775e7a7a3558c4ee68abd61300258ab08157a83e07faffca9347d06754"),
    ("gh", "rat", 0): (0, "cf7e7d08a65eaa6cde8238f822f3cbd0604cac7915a93b419a4fbf988af63c2f"),
    ("gh", "rat", 1): (0, "25cdc55566576a3ee434a0155f99120638a747c9141f255c1669b4e6daa49fd6"),
    ("gh", "dy", 0): (0, "74e7b5fe17ddee54b348bd15552655c4e165e7ebd937af2a894d6d1aee88ae10"),
    ("gh", "dy", 1): (0, "91e5e19a85aa8da760b851b7ebe763b7ecedd88c6552fdb94b10f534b2e97701"),
    ("gh", "real", 0): (0, "8a289ede58ec054651493242524160175597be0c01ca2257f22b93fe81b56501"),
    ("gh", "real", 1): (0, "597da2044c88ea463bc055eff45b3bad5f5a9cc0da3878ee60b62faf8a2b69e1"),
    ("gh", "mod:5", 0): (0, "9d43a333e89e0cea48a4822cf113f72ef498bbe1857033d8866ff3862efd3b18"),
    ("gh", "mod:5", 1): (0, "ded25a499eefc30fc9c6f27948d5417d07524671a24d4df49901048270341e84"),
    ("gh", "vec:2", 0): (0, "6d258f753959d46356a61580bec9d674e5c8974bd01855a135ad53e645d2201d"),
    ("gh", "vec:2", 1): (0, "b28d4b90bff0790bfeadece6b750c0387feaaa00472dbc4bbcce593baaf8dc46"),
    ("gh-cob", "rat", 0): (0, "97c7802689a9af196ebf6b5903b30bc9f33f9a1bec249599bb2ec07d500d89f3"),
    ("gh-cob", "rat", 1): (0, "852d21e2043e20bfbd959a891d1cb4b1dc8cad1cf1c7f2cbf68d16e848a7367b"),
    ("gh-cob", "dy", 0): (0, "f748da435bc1b43e5b0b3d81b177fcdfba7629c66088c97876d5753b7a5d3c18"),
    ("gh-cob", "dy", 1): (0, "df3c7b233006f024879795bb2b6373157dd22cb25d59a3b15a0de30dbf752d83"),
    ("gh-cob", "real", 0): (0, "e593356071e7d36336b4f7a30324d4bebe7399cbbf40f8aacd9f2470974e8676"),
    ("gh-cob", "real", 1): (0, "afa12129429b82f32d2500909b32e19e09ec6071a4b4e38ae9e5eeae0176eb14"),
    ("gh-cob", "mod:5", 0): (0, "5b51f0715e76a88fa6d94dc1bb57de079f2ed11981e2becd22cbf5f4559b7bf7"),
    ("gh-cob", "mod:5", 1): (0, "034b4f89aeedef995f42f2e29df8da2dc849929409d4c99fc46c8ec3ac95082b"),
    ("gh-cob", "vec:2", 0): (0, "f9ae0e1884f37245823230a2d1e55f77d283196506990e6c1e1e424bbbdb0ac4"),
    ("gh-cob", "vec:2", 1): (0, "416afcf3725d24b61ed281d9b8a93578eee69dce5f70d1dd61ed6deef4e0638c"),
    ("density", "rat", 0): (0, "83b9d430b7d76489931218b09e2e16bae9b445900d3d3c528697d1fd6c319ace"),
    ("density", "rat", 1): (0, "19c72ba4619116de2b5e0f8157b7e2cbe359fb89b42241bb946796fc559545b6"),
    ("density", "dy", 0): (0, "5a87e1926c5f7196b60aa849d70c2cc9d80d96bdc1bc25d90249bf9a65686f3d"),
    ("density", "dy", 1): (0, "ae52b303e0c3b4829036b581cf132b06e257079eedb7d0d5fcd5ff89248f15b2"),
    ("density", "real", 0): (0, "787693e339a2c666a1fa2493c9d975e902c2685182f5469baa6d97f80a4f7b37"),
    ("density", "real", 1): (0, "531f347c3385e31c52edfd42f49d86d78440413dcc184102051382ceba702fba"),
    ("density", "mod:5", 0): (0, "1354d1afe487c45a6011e6e9a49988ccbf2b3d8c12cb889529f54c4f6f6d9f46"),
    ("density", "mod:5", 1): (0, "63de0e21f4c6180a51313f72404abc263285f027951a079a6fd1205825b56180"),
    ("density", "vec:2", 0): (0, "fe10bdd367cba6053559cb5f986a3e8e3edab7ac1bccc77d6fa915f158efc947"),
    ("density", "vec:2", 1): (0, "9877e89be9a08c1ea4e81c8f616aeae8edf899e4c222e6d5cef9522c4de8eb3b"),
    ("verify", "rat", 0): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "rat", 1): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "dy", 0): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "dy", 1): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "real", 0): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "real", 1): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "mod:5", 0): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "mod:5", 1): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "vec:2", 0): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("verify", "vec:2", 1): (0, "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    ("roundtrip", "rat", 0): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "rat", 1): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "dy", 0): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "dy", 1): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "real", 0): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "real", 1): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "mod:5", 0): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "mod:5", 1): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "vec:2", 0): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("roundtrip", "vec:2", 1): (0, "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f"),
    ("happrox", "rat", 0): (0, "3871e3d76c15d8c1f1ff1fbeafc8d26c40245e8527b2c4a46f5d71b4513f538a"),
    ("happrox", "rat", 1): (0, "308d1d1eb24321d12c250ee2e8a1e0271ffbfd9db403680b3ac5b3d3379f9ad5"),
    ("happrox", "dy", 0): (0, "95589502cdf276b2e2e035a0c49db408a751bff977b75934debe74f5d6315157"),
    ("happrox", "dy", 1): (0, "2e7bef190b70fbcdf2e1a5a07f15d1c2e9c041dd7716c0b8cab1afa272a7ef1d"),
    ("happrox", "real", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "real", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "mod:5", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "mod:5", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "vec:2", 0): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("happrox", "vec:2", 1): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("command, group, seed", sorted(COMMAND_GOLDEN))
def test_golden_command(tmp_path, command, group, seed):
    assert _command_output(tmp_path, command, group, seed) == COMMAND_GOLDEN[command, group, seed]


# ``suites._write_json`` recurses once per nesting level; every document the
# package prints stays shallow.  The deepest golden output is a ``vec:d``
# value record ({"t": "vec", "v": [[n, d], ...]}) inside the certificate of
# ``cocycle gh`` (and ``cocycle solve``) on a coboundary.
MAX_NESTING = 7


def _nesting(obj) -> int:
    """Container levels of a parsed JSON value: 0 for a scalar."""
    if isinstance(obj, list):
        return 1 + max(map(_nesting, obj), default=0)
    if isinstance(obj, dict):
        return 1 + max(map(_nesting, obj.values()), default=0)
    return 0


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def test_every_golden_document_nests_at_most_the_measured_depth(tmp_path):
    nesting = {}
    for suite, group, seed in GOLDEN:
        text = _stdout(["run", suite, "--depth", "5", "--count", "3", "--format", "json",
                        "--group", group, "--seed", str(seed)])
        if text:
            nesting["run", suite, group, seed] = _nesting(json.loads(text))
    for command, group, seed in COMMAND_GOLDEN:
        kind, argv = COMMANDS[command]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(_command_input(kind, group, seed)))
        text = _stdout(argv + ["--input", str(path)])
        if text:
            nesting[command, group, seed] = _nesting(json.loads(text))
    assert max(nesting.values()) == MAX_NESTING
    assert nesting["gh-cob", "vec:2", 0] == MAX_NESTING
