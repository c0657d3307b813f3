"""The steady-state backend registry and its five solvers."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import SolverError
from repro.gmb import MarkovBuilder
from repro.num import (
    SPARSE_STATE_FLOOR,
    SolverOptions,
    absorption_times,
    as_operator,
    backend_names,
    get_backend,
    resolve_steady,
    solve_steady,
    steady_backend_for,
    steady_backends,
)
from repro.num.backends import UnknownBackendError, _normalised_system

EXPECTED_BACKENDS = (
    "dense-direct",
    "gth",
    "power",
    "sparse-direct",
    "sparse-iterative",
)


def two_state(lam=1e-3, mu=0.25):
    return (
        MarkovBuilder("pair")
        .up("Ok")
        .down("Down")
        .arc("Ok", "Down", lam)
        .arc("Down", "Ok", mu)
        .build()
    )


def birth_death(n=12, lam=0.3, mu=1.1):
    builder = MarkovBuilder("bd")
    for i in range(n):
        builder.up(f"S{i}")
    for i in range(n - 1):
        builder.arc(f"S{i}", f"S{i + 1}", lam)
        builder.arc(f"S{i + 1}", f"S{i}", mu)
    return builder.build()


class TestRegistry:
    def test_all_expected_backends_registered(self):
        assert backend_names() == tuple(sorted(EXPECTED_BACKENDS))

    def test_get_backend_returns_named_entries(self):
        for name in EXPECTED_BACKENDS:
            backend = get_backend(name)
            assert backend.name == name
            assert backend.representation in ("dense", "sparse", "any")
            assert backend.summary

    def test_unknown_backend_error_carries_valid_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("magic")
        assert excinfo.value.name == "magic"
        assert set(excinfo.value.valid) == set(backend_names())

    def test_steady_backends_iterates_registry(self):
        registry = steady_backends()
        assert set(registry) == set(backend_names())
        assert all(
            backend.name == name for name, backend in registry.items()
        )


class TestBackendsAgree:
    @pytest.mark.parametrize("name", EXPECTED_BACKENDS)
    def test_two_state_closed_form(self, name):
        chain = two_state(1e-3, 0.25)
        pi = solve_steady(chain, SolverOptions(steady_method=name))
        assert pi[0] == pytest.approx(0.25 / (1e-3 + 0.25), rel=1e-8)
        assert pi.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("name", EXPECTED_BACKENDS)
    def test_birth_death_detailed_balance(self, name):
        chain = birth_death()
        pi = solve_steady(chain, SolverOptions(steady_method=name))
        rho = 0.3 / 1.1
        expected = rho ** np.arange(12)
        expected /= expected.sum()
        np.testing.assert_allclose(pi, expected, rtol=1e-7)

    def test_sparse_backends_accept_dense_operators(self):
        # Capability dispatch: the operator is coerced into the
        # representation the backend requires.
        op = as_operator(two_state(), representation="dense")
        pi = solve_steady(op, SolverOptions(steady_method="sparse-direct"))
        assert pi.sum() == pytest.approx(1.0)

    def test_dense_backends_accept_sparse_operators(self):
        op = as_operator(two_state(), representation="sparse")
        pi = solve_steady(op, SolverOptions(steady_method="dense-direct"))
        assert pi.sum() == pytest.approx(1.0)


class TestThreadInvariantRouting:
    """The default backend leaves dense LAPACK at the state floor."""

    def test_the_floor_sits_between_library_blocks_and_threaded_lapack(self):
        # Library blocks have at most 28 states; OpenBLAS factorises on
        # several threads from m * n = 10 000, i.e. 100 states.
        assert 28 < SPARSE_STATE_FLOOR <= 100

    @pytest.mark.parametrize(
        "n, options, expected",
        [
            (SPARSE_STATE_FLOOR - 1, SolverOptions(), "dense-direct"),
            (SPARSE_STATE_FLOOR, SolverOptions(), "sparse-direct"),
            (
                SPARSE_STATE_FLOOR,
                SolverOptions(representation="dense"),
                "dense-direct",
            ),
            (
                SPARSE_STATE_FLOOR,
                SolverOptions(representation="sparse"),
                "dense-direct",
            ),
            (10_000, SolverOptions(steady_method="gth"), "gth"),
            (10_000, SolverOptions(steady_method="power"), "power"),
        ],
    )
    def test_steady_backend_for(self, n, options, expected):
        assert steady_backend_for(n, options) == expected

    def test_a_large_chain_resolves_to_sparse_direct(self):
        chain = birth_death(SPARSE_STATE_FLOOR)
        backend, op = resolve_steady(chain, SolverOptions())
        assert (backend.name, op.representation) == ("sparse-direct", "sparse")
        explicit = SolverOptions(steady_method="sparse-direct")
        assert np.array_equal(
            solve_steady(chain, SolverOptions()),
            solve_steady(chain, explicit),
        )

    def test_a_small_chain_keeps_dense_direct(self):
        backend, op = resolve_steady(birth_death(12), SolverOptions())
        assert (backend.name, op.representation) == ("dense-direct", "dense")

    def test_prebuilt_dense_operators_and_matrices_keep_dense_lapack(self):
        chain = birth_death(SPARSE_STATE_FLOOR)
        dense_op = as_operator(chain, representation="dense")
        for model in (dense_op, dense_op.dense()):
            backend, op = resolve_steady(model, SolverOptions())
            assert (backend.name, op.representation) == (
                "dense-direct", "dense"
            )
        sparse_op = as_operator(chain, representation="sparse")
        backend, _op = resolve_steady(sparse_op, SolverOptions())
        assert backend.name == "sparse-direct"

    def test_dense_storage_opts_out(self):
        chain = birth_death(SPARSE_STATE_FLOOR)
        options = SolverOptions(representation="dense")
        backend, op = resolve_steady(chain, options)
        assert (backend.name, op.representation) == ("dense-direct", "dense")
        np.testing.assert_allclose(
            solve_steady(chain, options),
            solve_steady(chain, SolverOptions()),
            atol=1e-12,
        )


def _stacked_normalised_system(op):
    """The normalised system built the long way: transpose, then stack."""
    qt = op.sparse().transpose().tocsr()
    ones_row = sparse.csr_matrix(np.ones((1, op.n)))
    return sparse.vstack([qt[:-1, :], ones_row], format="csr").tocsc()


class TestNormalisedSystem:
    @pytest.mark.parametrize(
        "chain",
        [two_state(), birth_death(12), birth_death(150)],
        ids=["2", "12", "150"],
    )
    def test_the_csc_arrays_match_the_stacked_transpose(self, chain):
        op = as_operator(chain, representation="sparse")
        a, b = _normalised_system(op)
        reference = _stacked_normalised_system(op)
        assert sparse.isspmatrix_csc(a)
        assert np.array_equal(a.indptr, reference.indptr)
        assert np.array_equal(a.indices, reference.indices)
        assert np.array_equal(a.data, reference.data)
        assert b.tolist() == [0.0] * (op.n - 1) + [1.0]

    def test_a_generator_in_non_canonical_csr_is_canonicalised(self):
        # Row 0 lists its columns out of order, and row 2 holds its
        # exit rate as two duplicate diagonal entries.
        q = sparse.csr_matrix(
            (
                np.array([2.0, -3.0, 1.0, 1.0, -1.0, 4.0, -2.0, -2.0]),
                np.array([1, 0, 2, 0, 1, 1, 2, 2]),
                np.array([0, 3, 5, 8]),
            ),
            shape=(3, 3),
        )
        assert not q.has_canonical_format
        op = as_operator(q, validate=False)
        a, _b = _normalised_system(op)
        dense = op.dense().T.copy()
        dense[-1, :] = 1.0
        np.testing.assert_array_equal(a.toarray(), dense)
        pi = solve_steady(op, SolverOptions(steady_method="sparse-direct"))
        np.testing.assert_allclose(pi @ op.dense(), 0.0, atol=1e-12)


class TestFailureModes:
    def test_sparse_direct_reports_singular_systems(self):
        # Two disconnected components: the stationary distribution is
        # not unique, so the normalised system is singular.  (Built as
        # a raw matrix because MarkovBuilder rejects reducible chains.)
        block = np.array([[-1.0, 1.0], [1.0, -1.0]])
        q = np.zeros((4, 4))
        q[:2, :2] = block
        q[2:, 2:] = block
        with pytest.raises(SolverError):
            solve_steady(q, SolverOptions(steady_method="sparse-direct"))

    def test_solve_steady_rejects_unknown_backend_late(self):
        options = SolverOptions()
        object.__setattr__(options, "steady_method", "bogus")
        with pytest.raises(SolverError):
            solve_steady(two_state(), options)


class TestAbsorptionTimes:
    def test_dense_and_sparse_agree_on_mttf_system(self):
        # Absorbing two-state chain: MTTF from the up state is 1/lam.
        lam = 1e-3
        chain = (
            MarkovBuilder("absorbing")
            .up("Ok")
            .down("Failed")
            .arc("Ok", "Failed", lam)
            .build()
        )
        up_index = [0]
        dense = absorption_times(
            as_operator(chain, representation="dense", validate=False),
            up_index,
        )
        sparse = absorption_times(
            as_operator(chain, representation="sparse", validate=False),
            up_index,
        )
        assert dense[0] == pytest.approx(1.0 / lam)
        assert sparse[0] == pytest.approx(1.0 / lam)
