from itertools import combinations, product

import pytest

from mixedqt.sat import Solver


def make_solver(num_vars, clauses, kind=tuple, decisions=None):
    """A solver for a list of clauses of two or more distinct literals:
    each binary clause goes into two implication lists of type ``kind``,
    the longer clauses are handed over as they are."""
    bins = [kind() for _ in range(2 * num_vars)]
    long = []
    for c in clauses:
        if len(c) > 2:
            long.append(list(c))
        else:
            bins[c[0] ^ 1] += (c[1],)
            bins[c[1] ^ 1] += (c[0],)
    return Solver(bins, long, decisions)


def brute_force(num_vars, clauses, assumptions):
    """Whether some assignment satisfies every clause and assumption."""
    for bits in product((False, True), repeat=num_vars):
        def holds(lit):
            return bits[lit >> 1] != bool(lit & 1)

        if all(map(holds, assumptions)) and all(any(map(holds, c)) for c in clauses):
            return True
    return False


def satisfies(model, clauses, assumptions):
    def holds(lit):
        return model[lit >> 1] != bool(lit & 1)

    return all(map(holds, assumptions)) and all(any(map(holds, c)) for c in clauses)


def random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(num_vars), rng.randint(2, min(4, num_vars)))
        clauses.append([2 * v + rng.randint(0, 1) for v in chosen])
    return clauses


def pigeonhole(pigeons, holes):
    """Every pigeon in some hole, no two in one: unsatisfiable when there
    are more pigeons than holes."""
    var = [[p * holes + h for h in range(holes)] for p in range(pigeons)]
    clauses = [[2 * var[p][h] for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for a, b in combinations(range(pigeons), 2):
            clauses.append([2 * var[a][h] + 1, 2 * var[b][h] + 1])
    return pigeons * holes, clauses


def test_agrees_with_brute_force_under_assumptions(rng):
    # one solver answers several sets of assumptions in turn, so clauses
    # learnt under one set must stay sound under the next; after a NO, the
    # final conflict is a set of assumptions the clauses refute; every
    # other solver holds its implications in lists rather than tuples
    answers = [0, 0]
    shrunk = 0   # NO answers whose core leaves some assumption out
    for i in range(300):
        num_vars = rng.randint(2, 9)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 5 * num_vars))
        solver = make_solver(num_vars, clauses, (tuple, list)[i % 2])
        for _ in range(3):
            assumed = rng.sample(range(num_vars), rng.randint(0, num_vars // 2))
            assumptions = [2 * v + rng.randint(0, 1) for v in assumed]
            model = solver.solve(assumptions, lambda: None)
            expected = brute_force(num_vars, clauses, assumptions)
            assert (model is not None) == expected
            if model is not None:
                assert len(model) == num_vars and satisfies(model, clauses, assumptions)
            else:
                assert set(solver.core) <= set(assumptions)
                assert not brute_force(num_vars, clauses, solver.core)
                shrunk += len(set(solver.core)) < len(set(assumptions))
            answers[expected] += 1
    assert min(answers) > 100 and shrunk > 50


def test_decision_count_agrees_with_brute_force(rng):
    # d decision variables under random clauses, then auxiliary variables
    # as the precondition allows them: positive only in clauses of three or
    # more literals, negative only in binary clauses with a decision
    # variable; no auxiliary variable is ever decided, and one left
    # unassigned reads as true
    answers = [0, 0]
    open_aux = 0   # models with an auxiliary variable left unassigned
    for _ in range(300):
        d = rng.randint(3, 7)
        num_vars = d + rng.randint(1, 4)
        clauses = random_cnf(rng, d, rng.randint(1, 4 * d))
        for w in range(d, num_vars):
            for _ in range(rng.randint(1, 3)):
                clauses.append([2 * w + 1, 2 * rng.randrange(d) + rng.randint(0, 1)])
            for _ in range(rng.randint(1, 3)):
                others = rng.sample([v for v in range(num_vars) if v != w], rng.randint(2, 3))
                clauses.append([2 * w] + [2 * v + (v < d and rng.randint(0, 1)) for v in others])
        solver = make_solver(num_vars, clauses, decisions=d)
        picked = []
        pick = solver._pick

        def pick_spy():
            picked.append(pick())
            return picked[-1]

        solver._pick = pick_spy
        for _ in range(3):
            assumed = rng.sample(range(num_vars), rng.randint(0, num_vars // 2))
            assumptions = [2 * v + rng.randint(0, 1) for v in assumed]
            model = solver.solve(assumptions, lambda: None)
            expected = brute_force(num_vars, clauses, assumptions)
            assert (model is not None) == expected
            if model is not None:
                assert len(model) == num_vars and satisfies(model, clauses, assumptions)
                open_aux += any(not solver.value[2 * w] for w in range(d, num_vars))
            answers[expected] += 1
        assert all(v < d for v in picked)
    assert min(answers) > 100 and open_aux > 50


def test_pigeonhole_refuted_across_activity_rescaling():
    # started just below the point where activities are scaled down, so
    # the refutation runs on both sides of it
    num_vars, clauses = pigeonhole(6, 5)
    solver = make_solver(num_vars, clauses)
    solver.bump = 1e99
    assert solver.solve([], lambda: None) is None
    assert solver.bump < 1e99   # scaled down
    # an unsatisfiable formula stays refuted, whatever is assumed
    assert solver.solve([0], lambda: None) is None


def test_search_resumes_after_spend_raises():
    num_vars, clauses = pigeonhole(5, 5)
    solver = make_solver(num_vars, clauses)
    calls = []

    def stop_early():
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("budget")

    with pytest.raises(RuntimeError):
        solver.solve([], stop_early)
    model = solver.solve([1], lambda: None)
    assert model is not None and not model[0] and satisfies(model, clauses, [1])


def test_clauses_added_between_solves(rng):
    # the unit not-x0 forces x1 at level 0, so assuming not-x1 fails on its
    # own whatever comes before it; then not-x1 as a clause is empty there
    solver = make_solver(3, [[0, 2]])
    solver.add_clause([1])
    assert solver.solve([4, 3], lambda: None) is None and solver.core == [3]
    solver.add_clause([3])
    assert solver.solve([], lambda: None) is None and solver.core == []
    # random clauses of one to four literals, added between solves, to
    # implication lists that are tuples or, every other time, lists
    answers = [0, 0]
    lengths = set()
    for i in range(200):
        num_vars = rng.randint(2, 8)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 3 * num_vars))
        solver = make_solver(num_vars, clauses, (tuple, list)[i % 2])
        for _ in range(5):
            chosen = rng.sample(range(num_vars), rng.randint(1, min(4, num_vars)))
            clauses.append([2 * v + rng.randint(0, 1) for v in chosen])
            solver.add_clause(clauses[-1])
            lengths.add(len(chosen))
            assumed = rng.sample(range(num_vars), rng.randint(0, num_vars // 2))
            assumptions = [2 * v + rng.randint(0, 1) for v in assumed]
            model = solver.solve(assumptions, lambda: None)
            expected = brute_force(num_vars, clauses, assumptions)
            assert (model is not None) == expected
            if model is not None:
                assert satisfies(model, clauses, assumptions)
            else:
                assert not brute_force(num_vars, clauses, solver.core)
            answers[expected] += 1
    assert min(answers) > 100 and lengths == {1, 2, 3, 4}


@pytest.mark.parametrize("bins", [[()] * 8, [[] for _ in range(8)]],
                         ids=["one-shared-tuple", "lists"])
def test_binary_clause_extends_only_its_two_lists(bins):
    # one empty tuple may stand for every literal, since adding to a tuple
    # replaces it; lists that shared one object would all take the clause
    solver = Solver(bins, [[1, 4, 6]])
    solver.add_clause([3, 5])
    assert [list(b) for b in solver.bins] == [[], [], [5], [], [3], [], [], []]
