"""File specs, generation, and checksum primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransferError
from repro.transfer import (
    FileSpec,
    RollingChecksum,
    block_signatures,
    generate_bytes,
    make_test_files,
    strong_checksum,
)
from repro.transfer.files import Entropy, PAPER_SIZES_MB
from repro.units import mb


class TestFileSpec:
    def test_paper_file_set(self):
        specs = make_test_files()
        assert [s.size_mb for s in specs] == list(PAPER_SIZES_MB)
        assert all(s.entropy is Entropy.RANDOM for s in specs)

    def test_materialize_deterministic(self):
        spec = FileSpec("f", 4096, seed=7)
        assert spec.materialize() == spec.materialize()

    def test_different_seeds_differ(self):
        a = FileSpec("a", 4096, seed=1).materialize()
        b = FileSpec("b", 4096, seed=2).materialize()
        assert a != b

    def test_materialize_size_guard(self):
        big = FileSpec("big", int(mb(100)))
        with pytest.raises(TransferError, match="cost model"):
            big.materialize()

    def test_digest_stable_for_large_files(self):
        big = FileSpec("big", int(mb(100)), seed=3)
        assert big.content_digest() == FileSpec("x", int(mb(100)), seed=3).content_digest()

    @pytest.mark.parametrize("size", [1, 4096, int(mb(10)), int(mb(100))])
    def test_digest_is_spec_derived_at_every_size(self, size, monkeypatch):
        from repro.transfer import files

        def refuse(*args, **kwargs):
            raise AssertionError("digest materialized the payload")

        monkeypatch.setattr(files, "generate_bytes", refuse)
        spec = FileSpec("a", size, Entropy.TEXT, seed=5)
        assert spec.content_digest() == FileSpec("b", size, Entropy.TEXT, seed=5).content_digest()
        variants = {
            spec.content_digest(),
            FileSpec("a", size + 1, Entropy.TEXT, seed=5).content_digest(),
            FileSpec("a", size, Entropy.RANDOM, seed=5).content_digest(),
            FileSpec("a", size, Entropy.ZEROS, seed=5).content_digest(),
            FileSpec("a", size, Entropy.TEXT, seed=6).content_digest(),
        }
        assert len(variants) == 5

    def test_large_file_digest_value_is_pinned(self):
        # recorded when digests above MAX_MATERIALIZE_BYTES were the only
        # spec-derived ones; making every size spec-derived kept it
        big = FileSpec("big", int(mb(100)), seed=3)
        assert big.content_digest() == (
            "7db0a65ba7292040ffe4caa28bd48cf1d4fa69872a4470cfc3b4c7edd1ac36bf")

    def test_paper_cell_never_materializes_payloads(self, monkeypatch):
        from repro.campaign import CampaignRunner, CampaignSpec, PoolConfig
        from repro.transfer import files

        def refuse(*args, **kwargs):
            raise AssertionError("payload bytes generated on the simulation path")

        monkeypatch.setattr(files, "generate_bytes", refuse)
        spec = CampaignSpec(clients=("ubc",), providers=("gdrive",),
                            routes=("via ualberta",), sizes_mb=(40.0,))
        result = CampaignRunner(spec, pool=PoolConfig(jobs=1)).run()
        assert [rec.ok for rec in result.records] == [True]

    def test_zero_size_rejected(self):
        with pytest.raises(TransferError):
            FileSpec("empty", 0)

    def test_random_data_incompressible(self):
        spec = FileSpec("r", 1000, entropy=Entropy.RANDOM)
        assert spec.compressed_bytes() == 1000

    def test_compressible_classes(self):
        assert FileSpec("t", 1000, entropy=Entropy.TEXT).compressed_bytes() < 500
        assert FileSpec("z", 1000, entropy=Entropy.ZEROS).compressed_bytes() < 50

    def test_generated_entropy_actually_differs(self):
        import zlib

        rnd = generate_bytes(50_000, Entropy.RANDOM, seed=1)
        txt = generate_bytes(50_000, Entropy.TEXT, seed=1)
        zer = generate_bytes(50_000, Entropy.ZEROS)
        assert len(zlib.compress(rnd)) > 0.95 * len(rnd)   # incompressible
        assert len(zlib.compress(txt)) < 0.70 * len(txt)   # compressible
        assert len(zlib.compress(zer)) < 0.01 * len(zer)   # trivial


class TestRollingChecksum:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            RollingChecksum(b"")

    def test_roll_equals_recompute(self):
        data = generate_bytes(600, seed=5)
        window = 64
        rc = RollingChecksum(data[:window])
        for i in range(window, len(data)):
            rc.roll(data[i - window], data[i])
            expected = RollingChecksum(data[i - window + 1:i + 1]).digest()
            assert rc.digest() == expected

    @given(st.binary(min_size=2, max_size=256), st.binary(min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_roll_property(self, data, extra):
        window = max(1, len(data) // 2)
        stream = data + extra
        rc = RollingChecksum(stream[:window])
        for i in range(window, len(stream)):
            rc.roll(stream[i - window], stream[i])
        assert rc.digest() == RollingChecksum(stream[-window:]).digest()

    def test_digest_is_32_bits(self):
        d = RollingChecksum(b"x" * 1000).digest()
        assert 0 <= d < 2**32


class TestStrongChecksum:
    def test_length(self):
        assert len(strong_checksum(b"abc")) == 16

    def test_sensitivity(self):
        assert strong_checksum(b"abc") != strong_checksum(b"abd")


class TestBlockSignatures:
    def test_count_excludes_partial_tail(self):
        sigs = block_signatures(b"x" * 2500, block_size=1000)
        assert [s.index for s in sigs] == [0, 1]

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            block_signatures(b"x", 0)

    def test_signatures_match_blocks(self):
        data = generate_bytes(4096, seed=9)
        sigs = block_signatures(data, 1024)
        for s in sigs:
            block = data[s.index * 1024:(s.index + 1) * 1024]
            assert s.weak == RollingChecksum(block).digest()
            assert s.strong == strong_checksum(block)
