"""Byte-identity gate: sha256 digests of the CLI's outputs on the fixtures.

A refactor that keeps behaviour must leave every digest unchanged. The
masked inputs drop cell (i, 2i mod m) from every row i, so each row has a
gap and each fixture's columns are all hit. Regenerate a digest only for a
change that is meant to alter the output bytes.
"""

import hashlib

from hetimpute import fixture, serialize
from hetimpute.cli import main

GOLDEN = {
    'case1 impute k=1 exit': '0',
    'case1 impute k=1 output': '3711568fa786dc0218ef0b53e1c27a0860de527ec720e63a8d15a050b04ce865',
    'case1 impute k=1 trace': '839aa17ffff50e0450be8fc4e4ac85f03d10eae23c95ab4a8a4fd437df4051c3',
    'case1 impute k=2 exit': '0',
    'case1 impute k=2 output': '8503757bec50abecf813b09efd036fca854504172adce65aba777af916a567fd',
    'case1 impute k=2 trace': '1abc620b5bb11016b225c61957cba6b6b661f3c11cd8a94d9ab4764464b22e7d',
    'case1 impute k=3 exit': '0',
    'case1 impute k=3 output': '8503757bec50abecf813b09efd036fca854504172adce65aba777af916a567fd',
    'case1 impute k=3 trace': '1abc620b5bb11016b225c61957cba6b6b661f3c11cd8a94d9ab4764464b22e7d',
    'case1 benchmark exit': '0',
    'case1 benchmark stdout': 'ec4820b42a34f95f8c2f05d35759118ed84c2355db5e60ae11f727fd49b8b309',
    'case1 benchmark raw': '316ad8a26f0e475dc5c74462dc2c8687667f15691216e5ec5723eb9e7342ee8a',
    'case1 benchmark summary': 'ec4820b42a34f95f8c2f05d35759118ed84c2355db5e60ae11f727fd49b8b309',
    'case1 distance complete exit': '0',
    'case1 distance complete stdout': 'ff0d80d2a28930413fc423a2225f1e69c1cf63bbbfb2c5e01b78cdd07bd1b54e',
    'case1 distance masked exit': '0',
    'case1 distance masked stdout': '4d3e5644a6d4f2e6d65252e1be9263da87f2902fee6d4abf43485f670b6f536a',
    'case2 impute k=1 exit': '0',
    'case2 impute k=1 output': '7542f5dae9327d81fa67d0dc453b3ca727d2ef36c6f03d6947f4c883e574cd9a',
    'case2 impute k=1 trace': '7d4ccf65bd04d8a42237d58dc8fe111a15323a1bb2a98b0604a969a6046374c2',
    'case2 impute k=2 exit': '0',
    'case2 impute k=2 output': '7012bee61724deae8d38527c734780f3e43236dfce390c1249e0b051c054a888',
    'case2 impute k=2 trace': '2ee87abeebbd377cfa40c2a543b47c2e425733d15b9e3928b1beacaf36fa7fc5',
    'case2 impute k=3 exit': '0',
    'case2 impute k=3 output': '7012bee61724deae8d38527c734780f3e43236dfce390c1249e0b051c054a888',
    'case2 impute k=3 trace': '2ee87abeebbd377cfa40c2a543b47c2e425733d15b9e3928b1beacaf36fa7fc5',
    'case2 benchmark exit': '0',
    'case2 benchmark stdout': 'cec1b6bed0e2dc7dff2838814d9082c138b51a288634a075276ca3f05ff18054',
    'case2 benchmark raw': '57263728636aade935edb4116adf2da9f3c454a1753025222d30867b1fec2e4e',
    'case2 benchmark summary': 'cec1b6bed0e2dc7dff2838814d9082c138b51a288634a075276ca3f05ff18054',
    'case2 distance complete exit': '0',
    'case2 distance complete stdout': '3d7972f3907b143fa876c39481aa5fd6d5ca0fbd9b0a2b0e2359c94efb26e927',
    'case2 distance masked exit': '0',
    'case2 distance masked stdout': '1943fcd5e5f4e0badbb37b66ba503f474d0b6cecb80a1529313c64f0fbae6006',
    'case3 impute k=1 exit': '0',
    'case3 impute k=1 output': 'a9d5dd4623703463d29ace52589c064fa761f8ad81ef2201172b66693d7b4326',
    'case3 impute k=1 trace': '778ef867e7fbfaf55dab20c1afc73dac6b569bb3db6cfb88d5d758726a0aa8ca',
    'case3 impute k=2 exit': '0',
    'case3 impute k=2 output': '89d3a9bf8f2e4f5e67c8369b2bf3d70ecc4f9778da31002693cd3dc8faa0818b',
    'case3 impute k=2 trace': 'cb1e1e53c5c062917d20a1adb4778b5a49d440b4887c40fe4fe060e4aaa7d995',
    'case3 impute k=3 exit': '0',
    'case3 impute k=3 output': 'e24a97f79c3cbf9fef11ac5d68af8ab3909e6b08b223a44c7797a644814d2566',
    'case3 impute k=3 trace': '7e2db29df6fc7c3a97ab55d68d5587bc4dc0b4df6df668ba1743489968e5218e',
    'case3 benchmark exit': '0',
    'case3 benchmark stdout': 'cea89809186bf0de4030f6fb43c7ee51053359c435ad2d4b879e6af92fbbda0a',
    'case3 benchmark raw': 'c6e756f61a24f631c25e45d98d78de1f5c1bb3a3571125e76392f62d487b9ab6',
    'case3 benchmark summary': 'cea89809186bf0de4030f6fb43c7ee51053359c435ad2d4b879e6af92fbbda0a',
    'case3 distance complete exit': '0',
    'case3 distance complete stdout': '4c734896dfdc15ce75bb8b42f7b3788e0a0844cbd10e9b47ad24bb7a5ee14ab8',
    'case3 distance masked exit': '0',
    'case3 distance masked stdout': 'd7e830a2f8fb79708a545b8aaf20bb00076aa502787c7c136a0e2cea406ec9b6',
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked(name):
    m = fixture(name)
    for i in range(m.n_rows):
        m = m.with_cell(i, (2 * i) % m.n_cols, None)
    return m


def cli_digests(tmp_path, capsys) -> dict[str, str]:
    out = {}
    for name in ("case1", "case2", "case3"):
        src = tmp_path / f"{name}.csv"
        masked = tmp_path / f"{name}_masked.csv"
        src.write_text(serialize(fixture(name)), encoding="utf-8")
        masked.write_text(serialize(_masked(name)), encoding="utf-8")
        for k in (1, 2, 3):
            filled = tmp_path / f"{name}_k{k}.csv"
            trace = tmp_path / f"{name}_k{k}_trace.csv"
            code = main(["impute", "--input", str(masked), "--output", str(filled),
                         "--k", str(k), "--trace", str(trace)])
            capsys.readouterr()
            out[f"{name} impute k={k} exit"] = str(code)
            out[f"{name} impute k={k} output"] = _digest(filled.read_bytes())
            out[f"{name} impute k={k} trace"] = _digest(trace.read_bytes())
        raw = tmp_path / f"{name}_bench.csv"
        code = main(["benchmark", "--fixture", name, "--k-min", "1", "--k-max", "3",
                     "--nan-min", "0", "--nan-max", "3", "--trials", "20",
                     "--seed", "7", "--output", str(raw)])
        out[f"{name} benchmark exit"] = str(code)
        out[f"{name} benchmark stdout"] = _digest(capsys.readouterr().out.encode())
        out[f"{name} benchmark raw"] = _digest(raw.read_bytes())
        out[f"{name} benchmark summary"] = _digest(
            (tmp_path / f"{name}_bench.summary.csv").read_bytes()
        )
        for label, path in (("complete", src), ("masked", masked)):
            code = main(["distance", "--input", str(path), "--rows", "0,1"])
            out[f"{name} distance {label} exit"] = str(code)
            out[f"{name} distance {label} stdout"] = _digest(
                capsys.readouterr().out.encode()
            )
    return out


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    assert cli_digests(tmp_path, capsys) == GOLDEN
