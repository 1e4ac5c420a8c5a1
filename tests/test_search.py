import collections
import errno
import itertools
import math
import operator
import os
import pickle
import random
import signal
import threading
import time

import pytest

from permderiv import CountRow, Permutation, SearchSpec, count_costas, count_one_costas, table
from permderiv import costas, search
from permderiv.search import (
    convex_prefix_ok,
    costas_prefix_ok,
    k_costas_prefix_ok,
    one_costas_prefix_ok,
)
from naive import (
    filter_first,
    filtered,
    naive_count,
    naive_is_convex,
    naive_longest_prefix,
    naive_walk_calls,
    reference_gamma,
    repeat_free,
)

# the orders each walk spreads from, read before any fixture lowers them
SPREAD_ORDER, FIRST_HIT_SPREAD_ORDER = search._SPREAD_ORDER, search._FIRST_HIT_SPREAD_ORDER


# Every shipped rule with its naive test of a whole permutation.  k <= 0 checks no row.
SHIPPED_RULES = {
    "one-costas": (one_costas_prefix_ok, repeat_free(1)),
    "costas": (costas_prefix_ok, repeat_free(None)),
    "convex": (convex_prefix_ok, naive_is_convex),
    "k-costas-0": (k_costas_prefix_ok(0), repeat_free(0)),
    "k-costas-2": (k_costas_prefix_ok(2), repeat_free(2)),
    "k-costas-3": (k_costas_prefix_ok(3), repeat_free(3)),
    "k-costas--1": (k_costas_prefix_ok(-1), repeat_free(-1)),
}


def rows_rules(n):
    """One-Costas, Costas and k-Costas K for K from -1 to n-1, and to 3 at every order, as SHIPPED_RULES has them."""
    return one_costas_prefix_ok, costas_prefix_ok, *map(k_costas_prefix_ok, range(-1, max(n, 4)))


def weighted(t):
    return sum(i * v for i, v in enumerate(t, 1)) % 7


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(n=0, prefix_ok=lambda p: True)
    with pytest.raises(ValueError):
        SearchSpec(n=65, prefix_ok=lambda p: True)
    with pytest.raises(ValueError):
        SearchSpec(n=3, prefix_ok=lambda p: True, mode="sample")
    with pytest.raises(ValueError):
        SearchSpec(n=3, prefix_ok=lambda p: True, mode="optimize")
    with pytest.raises(ValueError, match="direction must be 'max' or 'min', got 'up'"):
        SearchSpec(n=3, prefix_ok=lambda p: True, mode="optimize", objective=sum, direction="up")


def test_count_everything():
    spec = SearchSpec(n=3, prefix_ok=lambda prefix: True)
    assert search.enumerate(spec) == 6


# the RowsRule counts are checked against the filter in test_rows_rule_counts_equal_the_filter
@pytest.mark.parametrize("prefix_ok,full", [(convex_prefix_ok, naive_is_convex)], ids=["convex"])
@pytest.mark.parametrize("n", range(1, 8))
def test_oracle_equivalence(n, prefix_ok, full):
    spec = SearchSpec(n=n, prefix_ok=prefix_ok)
    assert search.enumerate(spec) == naive_count(n, full)


def test_collect_is_lexicographic():
    spec = SearchSpec(n=5, prefix_ok=one_costas_prefix_ok, mode="collect")
    perms = search.enumerate(spec)
    assert len(perms) == 44
    entries = [p.entries for p in perms]
    assert entries == sorted(entries)
    assert all(map(repeat_free(1), entries))


def test_optimize_max_global_variation():
    spec = SearchSpec(
        n=5,
        prefix_ok=lambda prefix: True,
        mode="optimize",
        objective=lambda t: sum(abs(t[i + 1] - t[i]) for i in range(4)),
        direction="max",
    )
    value, witness = search.enumerate(spec)
    assert value == 11
    assert isinstance(witness, Permutation)
    # first maximizer in ascending order
    best = [
        t
        for t in itertools.permutations(range(1, 6))
        if sum(abs(t[i + 1] - t[i]) for i in range(4)) == 11
    ]
    assert witness.entries == min(best)


def test_optimize_min_direction():
    spec = SearchSpec(
        n=6,
        prefix_ok=one_costas_prefix_ok,
        mode="optimize",
        objective=lambda t: max(abs(t[i + 1] - t[i]) for i in range(5)),
        direction="min",
    )
    value, witness = search.enumerate(spec)
    assert value == 3
    assert repeat_free(1)(witness.entries)


def test_optimize_nothing_accepted():
    spec = SearchSpec(
        n=3,
        prefix_ok=lambda prefix: False,
        mode="optimize",
        objective=lambda t: 0,
    )
    assert search.enumerate(spec) is None


@pytest.mark.parametrize("workers", (1, 2, 5, 16))
def test_worker_counts_do_not_change_results(workers):
    count_spec = SearchSpec(n=6, prefix_ok=one_costas_prefix_ok)
    assert search.enumerate(count_spec, workers=workers) == 176
    collect_spec = SearchSpec(n=5, prefix_ok=costas_prefix_ok, mode="collect")
    sequential = search.enumerate(collect_spec, workers=1)
    parallel = search.enumerate(collect_spec, workers=workers)
    assert parallel == sequential
    optimize_spec = SearchSpec(
        n=5,
        prefix_ok=lambda prefix: True,
        mode="optimize",
        objective=lambda t: sum(abs(t[i + 1] - t[i]) for i in range(4)),
        direction="max",
    )
    assert search.enumerate(optimize_spec, workers=workers) == search.enumerate(optimize_spec)
    for rule, _ in SHIPPED_RULES.values():
        for mode in ("count", "collect", "optimize"):
            spec = SearchSpec(n=6, prefix_ok=rule, mode=mode, objective=weighted)
            assert search.enumerate(spec, workers=workers) == search.enumerate(spec)


@pytest.mark.parametrize("n", range(1, 9))
def test_rows_rule_counts_equal_the_filter(n):
    # a count walks about a quarter of the tree, weighed; the filter judges all n! permutations
    for rule in rows_rules(n):
        assert search.enumerate(SearchSpec(n=n, prefix_ok=rule)) == len(filtered(n, rule.k))


@pytest.mark.parametrize("rule", [one_costas_prefix_ok, k_costas_prefix_ok(1)], ids=["one-costas", "k-costas-1"])
@pytest.mark.parametrize("n", range(1, 9))
def test_row1_counts_from_every_depth_equal_the_filter(n, rule):
    # a row-1 count carries only the last value; from every depth, one free value
    # left (n-1) and a whole permutation (n) among them, each task counts the
    # filter's matches with its prefix weighed by last value, a whole permutation 1
    accepted = filtered(n, 1)
    for depth in range(1, n + 1):
        expected = collections.Counter()
        for t in accepted:
            f, last = t[0], t[-1]
            expected[t[:depth]] += 1 if depth == n else 4 if f < last < n + 1 - f else 2 if f < last == n + 1 - f else 0
        tasks = list(search._frontier(rule, n, depth))
        assert tasks
        for prefix, state in tasks:
            assert search._count_rows(rule, n, prefix, state) == expected[prefix]


@pytest.mark.parametrize("n", range(1, 9))
def test_rows_rule_walks_equal_the_filter(n):
    # collect lists the filter's matches in order, optimize gives their first best, and
    # longest_prefix the first longest sequence whose every prefix the naive rows test accepts
    for rule in rows_rules(n):
        expected = filtered(n, rule.k)
        assert [p.entries for p in search.enumerate(SearchSpec(n=n, prefix_ok=rule, mode="collect"))] == expected
        for direction in ("max", "min"):
            spec = SearchSpec(n=n, prefix_ok=rule, mode="optimize", objective=weighted, direction=direction)
            assert search.enumerate(spec) == first_best(expected, weighted, direction)
        assert search.longest_prefix(rule, n) == naive_longest_prefix(n, repeat_free(rule.k))


@pytest.mark.parametrize("n", range(1, 9))
def test_rows_rule_first_hits_equal_the_filter(n):
    # from every task of depth 1..3, the RowsRule recursion finds the first sequence of
    # each reach that filtering the task's tails with the naive rows test finds
    for rule in (costas_prefix_ok, *map(k_costas_prefix_ok, range(-1, n))):
        for depth in range(1, min(n, 3) + 1):
            for prefix, state in search._frontier(rule, n, depth):
                for reach in range(depth, n + 1):
                    expected = filter_first(repeat_free(rule.k), n, reach, prefix)
                    assert search._first_rows(rule, n, reach, prefix, state) == expected


@pytest.mark.parametrize("n,firsts", [(1, [1]), (6, [1, 2, 3]), (7, [1, 2, 3, 4])])
def test_only_rows_rule_counts_walk_half_the_first_entries(monkeypatch, n, firsts):
    # every search walks from one _root call: RowsRule counts, collects and
    # optimizes from first entries f <= n//2 and the odd middle, every other
    # search from the whole tree (first None)
    walked = []
    root = search._root
    monkeypatch.setattr(search, "_root", lambda n, first=None: walked.append(first) or root(n, first))

    def first_values():
        # the first values the one recorded mask allows, None for the whole tree
        [first] = walked
        return [None] if first is None else [v for v in range(1, n + 1) if first >> v & 1]

    for mode in ("count", "collect", "optimize"):
        walked.clear()
        search.enumerate(SearchSpec(n=n, prefix_ok=costas_prefix_ok, mode=mode, objective=weighted))
        assert first_values() == firsts
    unreduced = (
        SearchSpec(n=n, prefix_ok=convex_prefix_ok),
        SearchSpec(n=n, prefix_ok=convex_prefix_ok, mode="collect"),
        SearchSpec(n=n, prefix_ok=lambda prefix: True),
        SearchSpec(n=n, prefix_ok=lambda prefix: True, mode="collect"),
    )
    for spec in unreduced:
        walked.clear()
        search.enumerate(spec)
        assert first_values() == [None]


@pytest.mark.parametrize("n", [1, 6, 8])
def test_only_rows_rule_counts_and_longest_prefix_walk_tasks(monkeypatch, n):
    # collect, optimize and a plain predicate's count walk once from the root, never
    # through _frontier; a RowsRule count and longest_prefix still take its tasks
    frontier = search._frontier

    def refused(*args):
        raise AssertionError("_frontier called")

    monkeypatch.setattr(search, "_frontier", refused)
    for rule, k in ((one_costas_prefix_ok, 1), (repeat_free(None), None)):
        expected = filtered(n, k)
        assert [p.entries for p in search.enumerate(SearchSpec(n=n, prefix_ok=rule, mode="collect"))] == expected
        spec = SearchSpec(n=n, prefix_ok=rule, mode="optimize", objective=weighted)
        assert search.enumerate(spec) == first_best(expected, weighted, "max")
    assert search.enumerate(SearchSpec(n=n, prefix_ok=repeat_free(1))) == len(filtered(n, 1))
    reached = []
    monkeypatch.setattr(search, "_frontier", lambda *args: reached.append(args) or frontier(*args))
    assert search.enumerate(SearchSpec(n=n, prefix_ok=one_costas_prefix_ok)) == len(filtered(n, 1))
    assert reached
    reached.clear()
    assert search.longest_prefix(costas_prefix_ok, n) == naive_longest_prefix(n, repeat_free(None))
    assert reached


@pytest.mark.parametrize(
    "n,rule",
    [(9, one_costas_prefix_ok), (9, k_costas_prefix_ok(2)), (9, costas_prefix_ok), (10, costas_prefix_ok)],
    ids=["one-costas-9", "k-costas-2-9", "costas-9", "costas-10"],
)
def test_halved_collect_and_optimize_equal_the_unhalved_walk(n, rule):
    serial = []
    search._walk(rule, n, lambda prefix: serial.append(tuple(prefix)), search._root(n))
    assert [p.entries for p in search.enumerate(SearchSpec(n=n, prefix_ok=rule, mode="collect"))] == serial
    for direction, pick in (("max", max), ("min", min)):
        best = pick(map(weighted, serial))
        first_best = next(t for t in serial if weighted(t) == best)
        spec = SearchSpec(n=n, prefix_ok=rule, mode="optimize", objective=weighted, direction=direction)
        assert search.enumerate(spec) == (best, Permutation(first_best))


def first_best(matches, objective, direction):
    """The n!-filter's answer: the best value over matches and the first match reaching it."""
    values = list(map(objective, matches))
    best = (max if direction == "max" else min)(values)
    return best, Permutation(matches[values.index(best)])


def tie_heavy_objectives(n):
    """Objectives with many best matches: constant, the first entry, and weights in -1..1."""
    rng = random.Random(n)
    weights = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(3)]
    linear = [lambda t, w=w: sum(map(operator.mul, w, t)) for w in weights]
    return [lambda t: 0, lambda t: t[0], *linear]


@pytest.mark.parametrize("name", [name for name, (rule, _) in SHIPPED_RULES.items() if isinstance(rule, search.RowsRule)])
@pytest.mark.parametrize("n", range(1, 9))
def test_halved_optimize_is_the_filters_first_best_under_ties(n, name):
    # optimize walks first values up to the middle and scores each match's complement
    # too; ties between a walked match and a complement go to the walked one
    rule, _ = SHIPPED_RULES[name]
    matches = filtered(n, rule.k)
    for objective in tie_heavy_objectives(n):
        for direction in ("max", "min"):
            spec = SearchSpec(n=n, prefix_ok=rule, mode="optimize", objective=objective, direction=direction)
            assert search.enumerate(spec) == first_best(matches, objective, direction)


@pytest.mark.parametrize("n", range(1, 9))
def test_optimize_calls_its_objective_once_per_match(n):
    for rule, _ in SHIPPED_RULES.values():
        calls = []
        spec = SearchSpec(n=n, prefix_ok=rule, mode="optimize", objective=lambda t: calls.append(t) or 0)
        search.enumerate(spec)
        assert len(calls) == len(set(calls)) == search.enumerate(SearchSpec(n=n, prefix_ok=rule))


@pytest.fixture
def forks(monkeypatch):
    """Spread every RowsRule count and longest-prefix walk from its first task over
    the parent and two forked children, three CPUs, more than most boxes have; the
    pids forked, in order."""
    monkeypatch.setattr(search, "_SPREAD_ORDER", 1)
    monkeypatch.setattr(search, "_FIRST_HIT_SPREAD_ORDER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    forked, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return forked


def serial_count(rule, n):
    """rule's order-n matches, counted by one in-process walk of the whole tree."""
    leaves = []
    search._walk(rule, n, lambda prefix: leaves.append(1), search._root(n))
    return len(leaves)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", range(1, 10))
def test_spread_counts_equal_the_serial_walk(forks, n):
    for rule in (one_costas_prefix_ok, costas_prefix_ok, *map(k_costas_prefix_ok, range(n))):
        assert search.enumerate(SearchSpec(n=n, prefix_ok=rule)) == serial_count(rule, n)
    assert forks
    assert_no_child_left()


@pytest.mark.parametrize("n", range(1, 14))
def test_spread_gamma_matches_reference_search(forks, n):
    assert costas.gamma(n) == reference_gamma(n)
    # one walk, for length n, forked from its first task
    assert len(forks) == 2
    assert_no_child_left()


def test_spread_needs_two_cpus_and_fork(forks, monkeypatch):
    spread = [search.count_costas(8), costas.gamma(12)]
    assert forks
    forks.clear()
    # another thread is alive: fork would copy any lock it holds, so nothing forks
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert [search.count_costas(8), costas.gamma(12)] == spread
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert [search.count_costas(8), costas.gamma(12)] == spread
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [search.count_costas(8), costas.gamma(12)] == spread
    assert forks == []


def test_spread_on_the_real_cpus_stays_serial_below_its_order(monkeypatch):
    # pinned to this process's own CPUs; n = 8 never forks, n = 9 forks one child per CPU but the first
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    assert search.count_one_costas(8).count == 3936
    assert forked == []
    assert search.count_one_costas(9).count == 23264
    cpus = len(os.sched_getaffinity(0))
    assert len(forked) == cpus - 1
    assert_no_child_left()


@pytest.mark.parametrize("how", ("killed", "exits"))
def test_lost_child_raises(forks, monkeypatch, how):
    # one child that ends without its last record, killed or exiting, fails the walk
    parent, count_rows = os.getpid(), search._count_rows

    def lost(rule, n, prefix, state):
        if os.getpid() != parent and len(forks) == 1:  # the second child: forked after one pid was recorded
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)
        return count_rows(rule, n, prefix, state)

    monkeypatch.setattr(search, "_count_rows", lost)
    with pytest.raises(RuntimeError, match="exited before reporting all its tasks"):
        search.count_costas(9)
    assert len(forks) == 2
    assert_no_child_left()


def test_failed_fork_walks_on_in_process(forks, monkeypatch):
    # the second fork of the first spread walk fails, as at the process limit, and
    # then every first one: the child forked is dropped and the parent walks alone
    fork = os.fork

    def second_fails():
        if forks:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    for rule in (one_costas_prefix_ok, costas_prefix_ok, k_costas_prefix_ok(2)):
        assert search.enumerate(SearchSpec(n=9, prefix_ok=rule)) == serial_count(rule, 9)
    assert [costas.gamma(n) for n in (9, 11)] == [reference_gamma(n) for n in (9, 11)]
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("spread", [True, False], ids=["spread", "in-process"])
@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 7])
def test_spread_yields_every_task_in_order(forks, size, spread):
    # three workers: below three tasks a child has none, and from four a child's
    # share ends before the parent's; below its spread order the parent walks them all
    tasks = list(itertools.islice(search._frontier(costas_prefix_ok, 9, 3), size))
    assert len(tasks) == size
    work = lambda prefix, state: (prefix, state)
    assert list(search._spread(9, tasks, work, 9 if spread else 10)) == [work(*t) for t in tasks]
    assert len(forks) == (2 if spread else 0)
    assert_no_child_left()


def test_spread_search_stopped_early_leaves_no_child(forks):
    tasks = search._frontier(costas_prefix_ok, 9, 3)
    hits = search._spread(9, tasks, lambda prefix, state: prefix, 9)
    assert next(hits) == (1, 2, 4)
    assert next(hits) == (1, 2, 5)
    hits.close()
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("clock", ["real", "jumping"])
def test_the_walk_order_alone_decides_each_fork(forks, monkeypatch, clock):
    # the real orders: a count spreads from order 9 and gamma from 14, each from
    # its first task, whatever time the walk reads, even an hour more a call
    monkeypatch.setattr(search, "_SPREAD_ORDER", SPREAD_ORDER)
    monkeypatch.setattr(search, "_FIRST_HIT_SPREAD_ORDER", FIRST_HIT_SPREAD_ORDER)
    if clock == "jumping":
        monkeypatch.setattr(time, "perf_counter", itertools.count(0.0, 3600.0).__next__)
    at_first_task, first_rows = [], search._first_rows

    def first_task(*args):  # the forks made before the parent walks its first task
        if not at_first_task:
            at_first_task.append(len(forks))
        return first_rows(*args)

    monkeypatch.setattr(search, "_first_rows", first_task)
    assert costas.gamma(13) == reference_gamma(13)
    assert at_first_task == [0] and forks == []
    at_first_task.clear()
    assert costas.gamma(14) == (14, (1, 2, 5, 7, 14, 8, 12, 11, 6, 4, 13, 10, 3, 9))
    assert at_first_task == [2] and len(forks) == 2
    forks.clear()
    assert search.count_costas(8) == 444
    assert forks == []
    assert search.count_costas(9) == 760
    assert len(forks) == 2
    assert_no_child_left()


def test_search_does_not_import_costas():
    # costas imports search for gamma and check_k; the reverse would be a cycle
    assert not hasattr(search, "costas")


def test_costas_count_at_order_10_is_published_value():
    # OEIS A008404, past the costas count cap of 9
    assert search.enumerate(SearchSpec(n=10, prefix_ok=costas_prefix_ok)) == 2160


def test_costas_count_at_order_11_is_published_value():
    # OEIS A008404, past the n!-filter oracles' reach: about 1 s
    assert search.enumerate(SearchSpec(n=11, prefix_ok=costas_prefix_ok)) == 4368


@pytest.mark.slow
def test_costas_count_at_order_12_is_published_value():
    # OEIS A008404: about 5 s, run with pytest -m slow
    assert search.enumerate(SearchSpec(n=12, prefix_ok=costas_prefix_ok)) == 7852


@pytest.mark.slow
def test_one_costas_count_at_order_12():
    # the count the derivative-side walk of test_derivative_side_count.py
    # also gives (in about 140 s): 6.8-7.0 s on two Xeon cores (Python 3.11),
    # run with pytest -m slow
    assert count_one_costas(12).count == 8_725_320


def test_count_one_costas_known_rows():
    assert count_one_costas(1) == CountRow(1, 1, 1, 100.0)
    assert count_one_costas(5) == CountRow(5, 120, 44, 36.7)
    assert count_one_costas(7) == CountRow(7, 5040, 788, 15.6)
    with pytest.raises(ValueError):
        count_one_costas(13)
    with pytest.raises(ValueError):
        count_one_costas(0)


def test_fraction_rounding_is_half_up():
    assert search._fraction(1, 160) == 0.6   # 0.625 is below the tie 0.65
    assert search._fraction(1, 16) == 6.3    # 6.25 is a tie; round() gives 6.2
    assert search._fraction(5, 16) == 31.3   # 31.25 is a tie; round() gives 31.2
    assert search._fraction(4, 6) == 66.7
    assert search._fraction(44, 120) == 36.7
    assert search._fraction(1, 3) == 33.3


@pytest.mark.parametrize("n", range(1, 8))
def test_count_costas_matches_naive(n):
    assert count_costas(n) == len(filtered(n, None))


def test_count_costas_bounds():
    with pytest.raises(ValueError):
        count_costas(10)


def test_table_one_costas_matches_reference():
    rows = table("one-costas", 8)
    assert [r.count for r in rows] == [1, 2, 4, 12, 44, 176, 788, 3936]
    assert [r.fraction for r in rows] == [100.0, 100.0, 66.7, 50.0, 36.7, 24.4, 15.6, 9.8]
    assert all(r.total == math.factorial(r.n) for r in rows)


def test_table_costas_and_convex():
    costas_rows = table("costas", 7)
    assert [r.count for r in costas_rows] == [1, 2, 4, 12, 40, 116, 200]
    convex_rows = table("convex", 6)
    assert [r.count for r in convex_rows] == [1, 2, 4, 6, 8, 8]


@pytest.mark.parametrize("n", [0, 65, 10**9])
def test_longest_prefix_rejects_orders_outside_the_walker_cap(n):
    with pytest.raises(ValueError, match=f"search order must be between 1 and 64, got {n}"):
        search.longest_prefix(costas_prefix_ok, n)


def test_longest_prefix_at_the_walker_cap_is_a_permutation():
    assert search.longest_prefix(k_costas_prefix_ok(0), 64) == tuple(range(1, 65))


@pytest.mark.parametrize("rule", [convex_prefix_ok, lambda prefix: costas_prefix_ok(prefix), lambda prefix: False],
                         ids=["convex", "wrapped-costas", "none"])
def test_longest_prefix_takes_only_a_rows_rule(rule):
    # _first_rows tests rows alone: under any other predicate it would accept every sequence
    with pytest.raises(TypeError, match="longest_prefix needs a RowsRule, got function"):
        search.longest_prefix(rule, 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_longest_prefix_walks_again_for_a_shorter_length(monkeypatch, n):
    # every RowsRule below order 32 has a sequence of length n, so the recursion is
    # made to find none at reach n: the walk for length n-1 gives the filter's first
    first_rows = search._first_rows
    monkeypatch.setattr(search, "_first_rows", lambda rule, n, reach, prefix, state:
                        () if reach == n else first_rows(rule, n, reach, prefix, state))
    for rule in (one_costas_prefix_ok, costas_prefix_ok):
        assert search.longest_prefix(rule, n) == filter_first(repeat_free(rule.k), n, n - 1, ())


# Hereditary plain predicates whose longest accepted sequence is, from some
# order on, shorter than n, so longest_prefix walks again for shorter lengths
# when its recursion finds what the filter finds under one of them.
SHORT_PREFIXES = {
    "at-most-3": lambda prefix: len(prefix) <= 3,
    "increasing-sum-at-most-7": lambda prefix: all(a < b for a, b in zip(prefix, prefix[1:])) and sum(prefix) <= 7,
    "even-values": lambda prefix: prefix[-1] % 2 == 0,
    "no-adjacent-neighbours-at-most-4": lambda prefix: len(prefix) <= 4 and all(
        abs(a - b) > 1 for a, b in zip(prefix, prefix[1:])),
    "one-costas-after-5": lambda prefix: prefix[0] >= 5 and repeat_free(1)(prefix),
    "none": lambda prefix: False,
}


@pytest.mark.parametrize("name", SHORT_PREFIXES)
@pytest.mark.parametrize("n", range(1, 7))
def test_longest_prefix_shorter_than_n_matches_filter(monkeypatch, n, name):
    # longest_prefix's own loop, lengths n down to 1 over the tasks in order, with
    # _first_rows answered by the filter; k = 0 tests no row, so every sequence is a task
    prefix_ok = SHORT_PREFIXES[name]
    monkeypatch.setattr(search, "_first_rows", lambda rule, n, reach, prefix, state:
                        filter_first(prefix_ok, n, reach, prefix))
    assert search.longest_prefix(k_costas_prefix_ok(0), n) == naive_longest_prefix(n, prefix_ok)


def test_table_bounds():
    with pytest.raises(ValueError):
        table("costas", 10)
    with pytest.raises(ValueError):
        table("one-costas", 13)
    with pytest.raises(ValueError):
        table("sorted", 5)


def test_fraction_not_increasing_over_reference_range():
    rows = table("one-costas", 9)
    fractions = [r.fraction for r in rows]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


@pytest.mark.parametrize("name", SHIPPED_RULES)
def test_shipped_rules_survive_pickle(name):
    rule, full = SHIPPED_RULES[name]
    copy = pickle.loads(pickle.dumps(rule))
    assert copy == rule
    for t in itertools.permutations(range(1, 6)):
        assert copy(list(t)) == rule(list(t)) == full(t)
    spec = SearchSpec(n=6, prefix_ok=rule, mode="collect")
    spec_copy = pickle.loads(pickle.dumps(spec))
    assert spec_copy == spec
    assert search.enumerate(spec_copy) == search.enumerate(spec)


# the RowsRules' collects and optimizes are checked in test_rows_rule_walks_equal_the_filter
@pytest.mark.parametrize("name", [name for name, (rule, _) in SHIPPED_RULES.items() if not isinstance(rule, search.RowsRule)])
@pytest.mark.parametrize("n", range(1, 8))
def test_shipped_rules_collect_and_optimize_match_filter(n, name):
    rule, full = SHIPPED_RULES[name]
    expected = [t for t in itertools.permutations(range(1, n + 1)) if full(t)]
    collected = search.enumerate(SearchSpec(n=n, prefix_ok=rule, mode="collect"))
    assert [p.entries for p in collected] == expected
    for direction in ("max", "min"):
        spec = SearchSpec(n=n, prefix_ok=rule, mode="optimize", objective=weighted, direction=direction)
        assert search.enumerate(spec) == first_best(expected, weighted, direction)


@pytest.mark.parametrize("mode", ("count", "collect", "optimize"))
def test_plain_callable_sees_the_naive_walks_prefixes(mode):
    # order 9 is past depth-1 tasks: a RowsRule would walk depth-3 ones there
    for n, full in ((6, repeat_free(1)), (9, repeat_free(None))):
        calls = []

        def recorded(prefix):
            calls.append(tuple(prefix))
            return full(prefix)

        spec = SearchSpec(n=n, prefix_ok=recorded, mode=mode, objective=weighted)
        search.enumerate(spec)
        assert calls == naive_walk_calls(n, full)


@pytest.mark.parametrize("n", range(1, 10))
def test_longest_prefix_stops_at_the_first_permutation(monkeypatch, n):
    # reach n only: the recursion walks the tasks in order up to and including the
    # one holding the first accepted permutation, then stops
    walked, first_rows = [], search._first_rows

    def recorded(rule, n, reach, prefix, state):
        walked.append((reach, prefix))
        return first_rows(rule, n, reach, prefix, state)

    monkeypatch.setattr(search, "_first_rows", recorded)
    depth = search._depth(n)
    for rule in (one_costas_prefix_ok, costas_prefix_ok):
        walked.clear()
        first = next(filter(repeat_free(rule.k), itertools.permutations(range(1, n + 1))))
        assert search.longest_prefix(rule, n) == first
        tasks = [prefix for prefix, _ in search._frontier(rule, n, depth)]
        assert walked == [(n, prefix) for prefix in tasks[: tasks.index(first[:depth]) + 1]]
