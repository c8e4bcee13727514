import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jobmig.broker import (
    JobRequirementList,
    MalformedTemplate,
    NoMatch,
    ResourceBroker,
    ResourceSpecTemplate,
    UnknownProvider,
    load_providers,
    match_job,
)
from jobmig.monitor import MonitorHub, ServiceLevelAgreement

SLA = ServiceLevelAgreement(min_throughput=1.0)
GOOD_ENTRY = {"provider_id": "x", "address": "127.0.0.1:7009", "cpu_mhz": 3000, "memory_mb": 512}


def server1(**kw):
    base = dict(provider_id="server1", address="127.0.0.1:7001", cpu_mhz=2800,
                memory_mb=512, arch_tags=frozenset({"x86"}))
    base.update(kw)
    return ResourceSpecTemplate(**base)


def server2(**kw):
    base = dict(provider_id="server2", address="127.0.0.1:7002", cpu_mhz=3000,
                memory_mb=1024, arch_tags=frozenset({"x86"}))
    base.update(kw)
    return ResourceSpecTemplate(**base)


def jrl(job_id="job-1", cpu=2800, mem=512, tags=(), sla=SLA):
    return JobRequirementList(job_id=job_id, min_cpu_mhz=cpu, min_memory_mb=mem,
                              arch_tags=frozenset(tags), sla=sla)


class TestRegistry:
    def test_register_and_snapshot(self):
        broker = ResourceBroker()
        broker.register_provider(server1())
        assert len(broker.build_rst()) == 1

    def test_reregistration_replaces(self):
        broker = ResourceBroker()
        broker.register_provider(server1())
        broker.register_provider(server1(available=False))
        rst = broker.build_rst()
        assert len(rst) == 1
        assert rst.get("server1").available is False

    def test_invariant_violations_rejected(self):
        with pytest.raises(MalformedTemplate):
            server1(cpu_mhz=0)
        with pytest.raises(MalformedTemplate):
            server1(memory_mb=-5)
        with pytest.raises(MalformedTemplate):
            server1(speed_factor=Fraction(0))

    def test_empty_table_is_valid(self):
        assert len(ResourceBroker().build_rst()) == 0

    def test_insertion_order_preserved(self):
        broker = ResourceBroker()
        broker.register_provider(server1())
        broker.register_provider(server2())
        assert list(broker.build_rst()) == ["server1", "server2"]

    def test_withdrawal_flips_availability_in_snapshot(self):
        broker = ResourceBroker()
        broker.register_provider(server1())
        broker.register_provider(server2())
        hub = MonitorHub(broker)
        hub.note_withdrawal("server1", 0, [])
        rst = broker.build_rst()
        assert rst.get("server1").available is False
        assert rst.get("server2").available is True

    def test_set_available_unknown_provider(self):
        with pytest.raises(UnknownProvider):
            ResourceBroker().set_available("ghost", False)

    def test_snapshot_is_immutable_value(self):
        broker = ResourceBroker()
        broker.register_provider(server1())
        rst = broker.build_rst()
        broker.register_provider(server2())
        assert len(rst) == 1


class TestMatchJob:
    def test_both_servers_eligible_and_ranked(self):
        rst = (server1(), server2())
        result = match_job(jrl(), rst)
        assert result.provider_ids == ("server2", "server1")
        # hand-applied score: 0.5*(3000/2800) + 0.5*(1024/512)
        assert dict(result.ranked)["server2"] == Fraction(43, 28)
        assert dict(result.ranked)["server1"] == Fraction(1)

    def test_empty_table_no_match(self):
        with pytest.raises(NoMatch):
            match_job(jrl(), ())

    def test_memory_constraint_excludes_all(self):
        rst = (server1(), server2())
        with pytest.raises(NoMatch):
            match_job(jrl(mem=2048), rst)

    def test_unavailable_provider_excluded(self):
        rst = (server1(available=False), server2())
        assert match_job(jrl(), rst).provider_ids == ("server2",)

    def test_arch_tags_must_be_superset(self):
        rst = (server1(), server2(arch_tags=frozenset()))
        assert match_job(jrl(tags={"x86"}), rst).provider_ids == ("server1",)

    def test_tie_broken_by_provider_id(self):
        twin_a = server1(provider_id="b-twin")
        twin_b = server1(provider_id="a-twin")
        result = match_job(jrl(), (twin_a, twin_b))
        assert result.provider_ids == ("a-twin", "b-twin")


def random_instance(rng):
    providers = []
    for i in range(rng.randint(0, 8)):
        providers.append(ResourceSpecTemplate(
            provider_id=f"p{i}", address=f"127.0.0.1:{7000 + i}",
            cpu_mhz=rng.randint(500, 4000), memory_mb=rng.choice([128, 256, 512, 1024, 2048]),
            arch_tags=frozenset(rng.sample(["x86", "arm", "gpu"], rng.randint(0, 3))),
            available=rng.random() < 0.8))
    req = jrl(cpu=rng.randint(500, 4000), mem=rng.choice([128, 256, 512, 1024, 2048]),
              tags=set(rng.sample(["x86", "arm", "gpu"], rng.randint(0, 2))))
    return req, providers


def oracle_eligible(req, providers):
    """Exhaustive per-provider constraint check, written from first principles."""
    out = set()
    for t in providers:
        if not t.available:
            continue
        if t.cpu_mhz < req.min_cpu_mhz:
            continue
        if t.memory_mb < req.min_memory_mb:
            continue
        if any(tag not in t.arch_tags for tag in req.arch_tags):
            continue
        out.add(t.provider_id)
    return out


class TestOracleEquivalence:
    def test_random_instances_match_oracle(self):
        rng = random.Random(20240811)
        for _ in range(300):
            req, providers = random_instance(rng)
            expected = oracle_eligible(req, providers)
            try:
                result = match_job(req, providers)
                assert set(result.provider_ids) == expected
            except NoMatch:
                assert expected == set()

    def test_selection_never_returns_ineligible(self):
        rng = random.Random(7)
        for _ in range(200):
            req, providers = random_instance(rng)
            try:
                result = match_job(req, providers)
            except NoMatch:
                continue
            assert result.provider_ids[0] in oracle_eligible(req, providers)


class TestRankStability:
    @given(perm_seed=st.integers(min_value=0, max_value=10**6),
           inst_seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, perm_seed, inst_seed):
        req, providers = random_instance(random.Random(inst_seed))
        shuffled = providers[:]
        random.Random(perm_seed).shuffle(shuffled)
        try:
            a = match_job(req, providers)
        except NoMatch:
            with pytest.raises(NoMatch):
                match_job(req, shuffled)
            return
        b = match_job(req, shuffled)
        assert a == b

    def test_scores_non_increasing(self):
        rng = random.Random(99)
        for _ in range(100):
            req, providers = random_instance(rng)
            try:
                result = match_job(req, providers)
            except NoMatch:
                continue
            scores = [s for _, s in result.ranked]
            assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestScalingInvariance:
    @given(factor=st.integers(min_value=1, max_value=16),
           inst_seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_cpu_scaling_never_removes_eligibility(self, factor, inst_seed):
        req, providers = random_instance(random.Random(inst_seed))
        try:
            before = set(match_job(req, providers).provider_ids)
        except NoMatch:
            before = set()
        scaled = [ResourceSpecTemplate(provider_id=t.provider_id, address=t.address,
                                       cpu_mhz=t.cpu_mhz * factor, memory_mb=t.memory_mb,
                                       arch_tags=t.arch_tags, speed_factor=t.speed_factor,
                                       available=t.available) for t in providers]
        try:
            after = set(match_job(req, scaled).provider_ids)
        except NoMatch:
            after = set()
        assert before <= after


class TestBootstrapFile:
    def test_load_providers(self, tmp_path):
        path = tmp_path / "providers.json"
        path.write_text(json.dumps([
            {"provider_id": "server1", "address": "127.0.0.1:7001", "cpu_mhz": 2800,
             "memory_mb": 512, "arch_tags": ["x86"], "speed_factor": 1.0, "available": True},
            {"provider_id": "server2", "address": "127.0.0.1:7002", "cpu_mhz": 3000,
             "memory_mb": 1024, "arch_tags": ["x86"], "speed_factor": 1.18, "available": True},
        ]))
        templates = load_providers(path)
        assert [t.provider_id for t in templates] == ["server1", "server2"]
        assert templates[1].speed_factor == Fraction(59, 50)

    @pytest.mark.parametrize("entry", [
        pytest.param({"provider_id": "x"}, id="missing-fields"),
        pytest.param({**GOOD_ENTRY, "provider_id": ["x"]}, id="list-provider-id"),
        pytest.param({**GOOD_ENTRY, "available": "false"}, id="string-available"),
        pytest.param({**GOOD_ENTRY, "memory_mb": True}, id="bool-memory"),
        pytest.param({**GOOD_ENTRY, "cpu_mhz": 3000.9}, id="float-cpu"),
        pytest.param({**GOOD_ENTRY, "arch_tags": "x86"}, id="string-arch-tags")])
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([GOOD_ENTRY]))
        assert load_providers(path)[0].provider_id == "x"  # each entry differs in one field
        path.write_text(json.dumps([entry]))
        with pytest.raises(MalformedTemplate):
            load_providers(path)
