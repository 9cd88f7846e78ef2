"""Pinned command outputs: the sha256 of stdout and the exit code of eight
commands on the six shipped configs and two long-word checks, of three
commands whose lattices have more than 700 elements, of commands on
configs whose generators the backend parses, and of ``group`` on the
shipped configs it supports.

A refactor that should not change what the program prints keeps every
digest.  Where a change is meant to alter an output, recompute the digest
of that command (``hashlib.sha256(stdout.encode()).hexdigest()``) and say
why in the change's notes.
"""

import hashlib
import os

import pytest

from lefthull.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

PINNED = [
    ("check", "axb", 0,
     "659ee275cdbc38ed64eea4bec7e644081f379bbb1efa5003301aebaae14605c1"),
    ("check", "cone2", 0,
     "7b266f9c1c4b2ad0cbde05390e559ffdd0c25d3d30a99e87d0b7eec3c4bee0e6"),
    ("check", "free2", 0,
     "e87c4a97a433bc2cc6637f0288705edcc43c8a9ebd84045c7d638a679eff5ab8"),
    ("check", "num23", 0,
     "acfddac2114e09b55aeae81ed00c4a6ed176a4b158a7779ba1e7dd702d371cb5"),
    ("check", "table5", 0,
     "a88373b69f720f8662aed9bf46588eadbb3e74445e4908e8d4aae77d628c1b00"),
    ("check", "zplus", 0,
     "c291a4e2aecf7a53133ac4603aacb5b3906d6ee3a16585752f3c998b1975f1cf"),
    ("check --depth 3", "axb", 0,
     "79daf949f6adf60a662993a602cba1b3989d1a31ee03d9947f27ca641b0061de"),
    ("check --depth 3", "cone2", 0,
     "6ceafbeceda6c76ed7734c88c8020ae91318770f1d30733a1679d0acb9980b16"),
    ("check --depth 3", "free2", 0,
     "431afef73c33c2bce06db095de5320fbdbb78c56c25be4812cd1fcec7d5179b1"),
    ("check --depth 3", "num23", 0,
     "548c132730114c40c882fb6c973f66b947e7528245b06289672653dc9ebe2495"),
    ("check --depth 3", "table5", 0,
     "6feb39ed930392431461cbdbee0fff354e086fb368a3a9ac6591a3cafbc0c715"),
    ("check --depth 3", "zplus", 0,
     "c550566617598c385076a99a501c33244cea2a8730bc25128c8207a90f80be2c"),
    ("check --length 3", "axb", 0,
     "a6c7be724126da01e769a5316a8b5432247238a82d76f463dbc2a6df21885354"),
    ("check --length 3", "cone2", 0,
     "b8172924c397b8a214686aac03208f44fb9319a59c21a68e12ec0e22f25f9476"),
    ("check --length 3", "free2", 0,
     "d039411649952d02a403fde855f046a331b458611a789001bf0d0912cd5fab44"),
    ("check --length 3", "num23", 0,
     "c8f2f8b2d802b97dd78941fd71c1368524e7df73806fe056932e37018cdf94cc"),
    ("check --length 3", "table5", 0,
     "1ba3875caa1d64ebe3bb1471a598ab347ba3d7784232e6d92482a486406fa6e9"),
    ("check --length 3", "zplus", 0,
     "fad5f6c28f322b9d2be9860c49d43cf5a9ee8f985dfe1cfc95fbd57ba2c29c2c"),
    ("hull --length 3", "axb", 0,
     "c8a13fb8fc692386b97768dd5b7e315345165a4757c8bb5fa522c52c7b243359"),
    ("hull --length 3", "cone2", 0,
     "8d2713be851172076ea9d3f0c61a0cdb450032c6530d1c02a354bc1bf155b06d"),
    ("hull --length 3", "free2", 0,
     "0e63cbf16e222ca2f1d7f040ef50081bb9a629b72f9315cc9a1eda91edffb797"),
    ("hull --length 3", "num23", 0,
     "37d64295de9e1cd606178719ec426dbca673ceda80146497684d4a9403431f4e"),
    ("hull --length 3", "table5", 0,
     "44c05d21a66fd402ee658334e38fe717ec4c049bd7d0842ab1c103ea8932cf89"),
    ("hull --length 3", "zplus", 0,
     "251b6c79ecf7839162567a2229b35b3cd1fecf58ab505dd5c969abadcdb07f41"),
    ("analyze --format machine", "axb", 0,
     "771f7a0238f6cb23a6b27587b7ebf9e2027d71aca553d19e2fb9d07e2a116f4e"),
    ("analyze --format machine", "cone2", 0,
     "a3be7d2086e43970921053e54b188fc943b0583cd9107bad5d01152a629c362b"),
    ("analyze --format machine", "free2", 0,
     "0df567536c2b293c348ea90ffe8b53e3f89ea9c660d35a2c3d854ce94567e2ef"),
    ("analyze --format machine", "num23", 0,
     "3c11f6d922b8a0f9717e4f3985c347c68def5ea0fd6a1955ed769f8375ab2679"),
    ("analyze --format machine", "table5", 0,
     "f4c8107a1251173fa3edb49a59c873b9171e0eefd3a72f024dfb65814f7525e2"),
    ("analyze --format machine", "zplus", 0,
     "d8b80c783f8e751e39c0702204c6085a655b55752bc1f2a3ba73a2aa114329b5"),
    ("filters", "axb", 0,
     "503ca4c59e97879a1c99251f47eb45c2e851bd8aa7def2a971df61d6f5de33b0"),
    ("filters", "cone2", 0,
     "21fbb708caf84f469c6cf6c49cbec71e61d0c6786bc58d445bbccf7fa43b8406"),
    ("filters", "free2", 0,
     "df9717b55fa9540a60b3ecb13e8e3bbcad346da5120c5e7471488e359658f2bc"),
    ("filters", "num23", 0,
     "55f7458245bb2f13727e2d62c1f5861e3f74efb441296e2097ae26b3259ba529"),
    ("filters", "table5", 0,
     "811853f407fecf78a6f31f8d1cd4b6d1512a049b91d52dc6080c55cac17dbec1"),
    ("filters", "zplus", 0,
     "e11044b1cc281389f103bc451474d33dc41a74e5d669042336063c358bfcfc78"),
    ("filters --depth 3", "axb", 0,
     "629876ee801baba72b397f4aeb4e19a169f58ef1bd2aba2549612ed6f1016ce4"),
    ("filters --depth 3", "cone2", 0,
     "03fb8b89178a3d0695a1b068a5eb3c73a00a1d6f1f82611595714f75914d20dc"),
    ("filters --depth 3", "free2", 0,
     "67b4b50b43e72cd6773ef0232e244892066a85fc5fc038cb068075fdc7b45a81"),
    ("filters --depth 3", "num23", 0,
     "07375efd1ba1f5a08812a294ff17bf474515f78b402c37af25314bb72775697b"),
    ("filters --depth 3", "table5", 0,
     "8f96e5d99a104f088b94a9021cc882cb58962e0bfd21ad97f36623a021881bec"),
    ("filters --depth 3", "zplus", 0,
     "68913da72c0d88fe717a8a23ad6405354f3736642afcffe6b2f60c41d40a1af8"),
    ("ideals --depth 3", "axb", 0,
     "36d5b9c651d1822f5ea3814fee962d09a0c26e71841457934f497903d7d591ce"),
    ("ideals --depth 3", "cone2", 0,
     "ad436366e8259cfc5508c3d3c9a099b3cb6a54b1e84b3951bd65782812fe59f8"),
    ("ideals --depth 3", "free2", 0,
     "6c5bd7f1469405bbd8d1391767d1407376dc8496356c9133b497d546478707dd"),
    ("ideals --depth 3", "num23", 0,
     "e01d00134289cce52a20c9260a4acd7e7912865b7ab1a7aabee074c66872dfa2"),
    ("ideals --depth 3", "table5", 0,
     "390e148ae415e0fc43c16c396993ab9c522cbf1db895d041d567cb3a3f889216"),
    ("ideals --depth 3", "zplus", 0,
     "aa43fb5a406c24f45435192aeb8469a1b5c0db9f7ba2793974a837e2fa4a8eaf"),
    # long words: 13,368 hull elements on axb, and a 40-point cone window
    ("check --length 5", "axb", 0,
     "8b020eb387337e8b1caff5f361fa499f0bf7073f5f9319344673e81e1ad08ff7"),
    ("check --length 6 --window 40", "cone2", 0,
     "e784d19fd74b0002d75efedbae06d69d5eb760aa040b6d24838c102b401e9df5"),
]


@pytest.mark.parametrize("command, config, code, digest", PINNED,
                         ids=["%s-%s" % (c.replace(" ", ""), f)
                              for c, f, _, _ in PINNED])
def test_output_is_pinned(command, config, code, digest, capsys):
    cmd, *flags = command.split()
    got = main([cmd, os.path.join(CONFIGS, config + ".cfg"), *flags])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# lattices past those of the shipped configs: <10,11> has 1,146 elements at
# depth 3, the cone of dimension 6 has 730 at depth 2
WRITTEN = {
    "num-10-11": "kind = numerical\nparams = 10 11\n",
    "cone6": "kind = cone\nparams = 6\n",
}
PINNED_LARGE = [
    ("filters --depth 3", "num-10-11", 0,
     "5c816719c009bc92803f2d9f112a754dbbcd1a45745ea020f328424e4b2d86d2"),
    ("check --depth 3", "num-10-11", 0,
     "2404a79bb84f3ea3a997f035e0a38b636ee5ef2e2b20c4197bbd7a693f125111"),
    ("filters --depth 2", "cone6", 0,
     "393371477d0854ebfbf432d8cb809c91b62eb66655632696970cae1aa752c879"),
]


@pytest.mark.parametrize("command, config, code, digest", PINNED_LARGE,
                         ids=["%s-%s" % (c.replace(" ", ""), f)
                              for c, f, _, _ in PINNED_LARGE])
def test_large_lattice_output_is_pinned(command, config, code, digest,
                                        tmp_path, capsys):
    path = tmp_path / (config + ".cfg")
    path.write_text(WRITTEN[config])
    cmd, *flags = command.split()
    got = main([cmd, str(path), *flags])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# configs with a ``generators`` key, which each backend reads with its
# ``parse``; the ax+b primes (0,2) (0,3) (0,5) (0,7) take D past
# SIGNATURE_POINTS, so their lattice meets by ``intersect``
WRITTEN.update({
    "axb-primes": "kind = axb\ngenerators = (0,2) (0,3) (0,5) (0,7)\n",
    "axb-gens": "kind = axb\ngenerators = (1,2) (0,3)\n",
    "cyc48-g1": "kind = table\nparams = cyclic 48\ngenerators = 1\n",
    "cone2-gens": "kind = cone\nparams = 2\ngenerators = (1,0) (1,1)\n",
    "num-3-5-7-gens": "kind = numerical\nparams = 3 5 7\ngenerators = 5 7\n",
})
PINNED_PARSED = [
    ("check --depth 3", "axb-primes", 0,
     "f75a653ca7020e376044bb61be4156d9534d55aa6c8884a13974855699bd61a2"),
    ("check", "axb-gens", 0,
     "13202bfc16c2d18c8361b3a91d2d4e04afda6b38bda85480bdc4eae9ff162288"),
    ("hull", "cyc48-g1", 0,
     "064350bda86061766b61fc3a4de6b8ecf0d67f7208a56799d5da35c0b7cb115b"),
    ("check", "cone2-gens", 0,
     "6eeb9bae26ef41a249b1471aedccc2b1aae76ff3817d2b25b35b1b0f0783fc44"),
    ("check", "num-3-5-7-gens", 0,
     "780d70c519e88ea724a63342402ec084e15d06b19f9cc53af0e1740506478860"),
]


@pytest.mark.parametrize("command, config, code, digest", PINNED_PARSED,
                         ids=["%s-%s" % (c.replace(" ", ""), f)
                              for c, f, _, _ in PINNED_PARSED])
def test_parsed_generator_output_is_pinned(command, config, code, digest,
                                           tmp_path, capsys):
    test_large_lattice_output_is_pinned(command, config, code, digest,
                                        tmp_path, capsys)


PINNED_GROUP = [
    ("zplus", "9f982310b43b233113ba5d74abfbee307e4692e7e0b220bea3cca375469944ba"),
    ("cone2", "9e8605e5ae135a511ac1f2840c596a5009cf1be91a2e8a7230935ea410ac231c"),
    ("num23", "bc4f71037372196d0b3410914da0bb356367b54e45df6739861a348456d2d4fb"),
    ("table5", "d2e15e18670feaf241c069accdb60e1636595080abecac39e451fda2a22be8c6"),
]


@pytest.mark.parametrize("config, digest", PINNED_GROUP,
                         ids=[f for f, _ in PINNED_GROUP])
def test_group_output_is_pinned(config, digest, capsys):
    test_output_is_pinned("group", config, 0, digest, capsys)


# ``matrix --out DIR``: the digest covers stdout, with DIR read as OUT, then
# each export file's name, a newline and its content, in sorted name order
PINNED_MATRIX = [
    ("", "axb",
     "07dd92d759819fbfa289021a73b646fddb03e21854ff3f2375104f83db3d06e7"),
    ("--length 3", "axb",
     "67042f140e76104b25f90c4de77592f44e23f0378b53235ed9ffa85498b2f51f"),
    ("", "cone2",
     "75b5c2bc838997281af012855620728f7d71a62fe9fd07470f2ce8015dde3242"),
    ("--length 3", "cone2",
     "87b1d03d5dcab0a054e36d71b24dcf3211782aef63d9072cee9d143840cc82ca"),
    ("", "free2",
     "d88cda0d57f558ce936b650ade0fbbfba3016f8e2a2f40dbfcb85ce74890ce05"),
    ("--length 3", "free2",
     "d251a69f6dff5552a43ca26b941458eb720cc8aa6f69c96074c25afb8ca665f1"),
    ("", "num23",
     "540894a46978d748abda44df7aa50dddb7c7b210053ca86b318c952738532565"),
    ("--length 3", "num23",
     "e895c25164d364120967a084e386cb3817a41d2d0f88ea2bdb608e9aba8c21e9"),
    ("", "table5",
     "87e60d1c7a4b8798df0d73920ebb2bfafb918ae25e4023b2fbaa5c81da632411"),
    ("--length 3", "table5",
     "a8f3e01dea9388f665030071d9d49c16a247e78464f3d7375d539dc53a844784"),
    ("", "zplus",
     "409693e304002d2891b0e76ae2a200645a8174346d3f2c3c3179715ae2e5bb5f"),
    ("--length 3", "zplus",
     "b76acc7b3bea0d9984e5420af94c324f6a92ba81d931250b7b1c4f1b30fa113f"),
]


@pytest.mark.parametrize("flags, config, digest", PINNED_MATRIX,
                         ids=["matrix%s-%s" % (f.replace(" ", ""), c)
                              for f, c, _ in PINNED_MATRIX])
def test_matrix_exports_are_pinned(flags, config, digest, tmp_path, capsys):
    cfg = os.path.join(CONFIGS, config + ".cfg")
    assert main(["matrix", cfg, "--out", str(tmp_path), *flags.split()]) == 0
    text = capsys.readouterr().out.replace(str(tmp_path), "OUT")
    for name in sorted(os.listdir(tmp_path)):
        with open(os.path.join(tmp_path, name), encoding="utf-8") as fh:
            text += name + "\n" + fh.read()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
