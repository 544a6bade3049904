"""Tests for the workload generators."""

import pytest

from repro.workloads import Mix, ProvenanceWorkload, SmallBankWorkload, YCSBWorkload
from repro.workloads.ycsb import ZipfGenerator


def test_smallbank_setup_creates_all_accounts():
    workload = SmallBankWorkload(num_accounts=10)
    setup = list(workload.setup_transactions())
    assert len(setup) == 10
    assert all(tx.op == "create_account" for tx in setup)


def test_smallbank_stream_is_deterministic():
    a = list(SmallBankWorkload(num_accounts=20, seed=5).transactions(100))
    b = list(SmallBankWorkload(num_accounts=20, seed=5).transactions(100))
    assert a == b


def test_smallbank_different_seeds_differ():
    a = list(SmallBankWorkload(num_accounts=20, seed=5).transactions(50))
    b = list(SmallBankWorkload(num_accounts=20, seed=6).transactions(50))
    assert a != b


def test_smallbank_uses_all_ops():
    txs = SmallBankWorkload(num_accounts=20, seed=1).transactions(500)
    ops = {tx.op for tx in txs}
    assert ops == {
        "get_balance", "update_balance", "update_saving",
        "send_payment", "write_check", "amalgamate",
    }


def test_smallbank_payment_parties_differ():
    for tx in SmallBankWorkload(num_accounts=5, seed=2).transactions(300):
        if tx.op == "send_payment":
            assert tx.args[0] != tx.args[1]


def test_smallbank_needs_two_accounts():
    with pytest.raises(ValueError):
        SmallBankWorkload(num_accounts=1)


def test_ycsb_load_phase_covers_all_keys():
    workload = YCSBWorkload(num_keys=25)
    load = list(workload.load_transactions())
    assert len(load) == 25
    assert {tx.args[0] for tx in load} == {f"user{i}" for i in range(25)}


def test_ycsb_mixes():
    workload = YCSBWorkload(num_keys=50, seed=3)
    ro = list(workload.run_transactions(200, Mix.READ_ONLY))
    assert all(tx.op == "read" for tx in ro)
    wo = list(workload.run_transactions(200, Mix.WRITE_ONLY))
    assert all(tx.op == "write" for tx in wo)
    rw = list(workload.run_transactions(400, Mix.READ_WRITE))
    reads = sum(1 for tx in rw if tx.op == "read")
    assert 100 < reads < 300  # roughly half


def test_zipf_skews_to_popular_keys():
    zipf = ZipfGenerator(100, theta=0.99, seed=4)
    samples = [zipf.next_rank() for _ in range(2000)]
    top_share = sum(1 for rank in samples if rank < 10) / len(samples)
    assert top_share > 0.3
    assert all(0 <= rank < 100 for rank in samples)


def test_provenance_base_then_updates():
    workload = ProvenanceWorkload(num_base_keys=10, seed=2)
    base = list(workload.load_transactions())
    assert len(base) == 10
    updates = list(workload.update_transactions(100))
    assert all(tx.op == "write" for tx in updates)
    assert {tx.args[0] for tx in updates} <= {f"prov{i}" for i in range(10)}


def test_provenance_queries_cover_requested_range():
    workload = ProvenanceWorkload(num_base_keys=10, seed=2)
    for key, low, high in workload.queries(20, current_block=100, query_range=16):
        assert high == 100
        assert low == 85
        assert key.startswith("prov")


def test_provenance_query_range_clamped_at_genesis():
    workload = ProvenanceWorkload(num_base_keys=10)
    for _key, low, _high in workload.queries(5, current_block=4, query_range=100):
        assert low == 1
