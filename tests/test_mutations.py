"""Mutation tests: deliberately sabotaged algorithm variants must be
caught by the library's runtime assertions or output validators.

This is the "do the safety nets actually catch anything" suite -- each
mutation removes one load-bearing mechanism identified in DESIGN.md
section 6 and asserts that some check trips on at least one instance of
a seed sweep.  If a mutation survives the whole sweep silently, the
corresponding invariant check has gone soft and this suite fails.
"""

import random

from repro.bounds import theorem11_hk_ssp
from repro.congest import Network
from repro.core.keys import gamma_for
from repro.core.pipelined import PipelinedSSPProgram
from repro.graphs import random_graph
from repro.graphs.reference import weak_delta_bound
from repro.graphs.validation import ValidationError, assert_weak_h_hop_contract

INF = float("inf")


def run_variant(cls, seed, *, cutoff=True):
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    g = random_graph(n, p=0.3, w_max=6, zero_fraction=0.4, seed=seed)
    h = rng.randint(2, n)
    srcs = tuple(rng.sample(range(n), rng.randint(2, n)))
    delta = weak_delta_bound(g, srcs, h)
    gamma = gamma_for(h, len(srcs), delta)
    bound = theorem11_hk_ssp(h, len(srcs), delta)
    net = Network(g, lambda v: cls(v, srcs, h, gamma,
                                   cutoff_round=bound if cutoff else None))
    net.run(max_rounds=100000)
    dist = {x: [INF] * n for x in srcs}
    hops = {x: [INF] * n for x in srcs}
    for v in range(n):
        for x, (d, l, p) in net.output_of(v).items():
            dist[x][v], hops[x][v] = d, l
    return g, dist, hops, h


def sweep_expect_failure(cls, *, seeds=range(30), cutoff=True):
    """Run the sabotaged variant over a sweep; return how many instances
    were caught (by assertion or by the output validator)."""
    caught = 0
    for seed in seeds:
        try:
            g, dist, hops, h = run_variant(cls, seed, cutoff=cutoff)
            assert_weak_h_hop_contract(g, dist, hops, h)
        except (AssertionError, ValidationError):
            caught += 1
    return caught


class NoPadding(PipelinedSSPProgram):
    """Mutation: drop the Step 13 quota padding entirely (never insert
    non-SP entries).  Receiver positions then lag sender positions and
    Invariant 1's runtime assertion must fire."""

    def on_receive(self, ctx, r, inbox):
        keep = []
        for env in inbox:
            d_in, l_in, x, flag_in, nu_in = env.payload
            keep.append(type(env)(src=env.src, dst=env.dst, round=env.round,
                                  payload=(d_in, l_in, x, flag_in, 0),
                                  words=env.words))
        super().on_receive(ctx, r, keep)


class EvictsSP(PipelinedSSPProgram):
    """Mutation: the flag-d* chain is not protected -- the freshly
    demoted *new* information is thrown away (keep the stale entry as
    SP).  Final distances go stale and the contract validator catches
    wrong guaranteed pairs."""

    def on_receive(self, ctx, r, inbox):
        for env in inbox:
            y = env.src
            w = ctx.weight_in(y)
            if w is None:
                continue
            d_in, l_in, x, _flag, nu_in = env.payload
            d, l = d_in + w, l_in + 1
            old = self.list_v.flagged.get(x)
            # Step 9 against the flag-d* holder (no arrival ties the
            # source's own (0, 0) entry, the only one without a parent).
            beats = old is None or (d, l, y) < (old[1], old[3], old[4])
            # sabotage: refuse improvements that beat the current best
            # by more than nothing -- i.e. drop every SP improvement
            # after the first.
            if beats and old is not None:
                continue
            from repro.core.keys import key_of
            kappa = key_of(d, l, self.gamma)
            z = (kappa, d, x, l, y)
            if beats:
                self.list_v.insert_sp(z)
                if l <= self.h:
                    self.last_sp_update_round = r
            else:
                below = self.list_v.count_for_source_below(x, (kappa, d, x))
                if below < nu_in:
                    self.list_v.insert(z, self.budget)


class TooEagerCutoff(PipelinedSSPProgram):
    """Mutation: stop sending at half the Lemma II.14 cutoff.  Guaranteed
    outputs stop arriving and the contract validator catches it."""

    def on_send(self, ctx, r):
        if self.cutoff_round is not None and r > self.cutoff_round // 2:
            return
        super().on_send(ctx, r)


class TestMutationsAreCaught:
    def test_no_padding_trips_invariant1(self):
        caught = sweep_expect_failure(NoPadding)
        assert caught > 0, (
            "dropping the quota padding went unnoticed: Invariant 1's "
            "assertion has gone soft")

    def test_evicting_sp_chain_breaks_contract(self):
        caught = sweep_expect_failure(EvictsSP)
        assert caught > 0, (
            "freezing the flag-d* chain went unnoticed: the weak-contract "
            "validator has gone soft")

    def test_too_eager_cutoff_breaks_contract(self):
        caught = sweep_expect_failure(TooEagerCutoff)
        assert caught > 0, (
            "halving the cutoff went unnoticed: either Lemma II.14's "
            "bound is extremely loose on these instances or the "
            "validator has gone soft")

    def test_unmutated_variant_passes_same_sweep(self):
        """Control: the real algorithm passes the identical sweep."""
        caught = sweep_expect_failure(PipelinedSSPProgram)
        assert caught == 0
