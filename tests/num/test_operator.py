"""GeneratorOperator: construction, representation selection, validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.gmb import MarkovBuilder
from repro.num import (
    SPARSE_STATE_FLOOR,
    GeneratorOperator,
    as_operator,
    validate_generator,
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


def ring_chain(n):
    builder = MarkovBuilder("ring")
    for i in range(n):
        builder.up(f"S{i}")
    for i in range(n):
        builder.arc(f"S{i}", f"S{(i + 1) % n}", 1.0 + i * 0.01)
    return builder.build()


class TestFromChain:
    def test_dense_matches_generator_matrix_bitwise(self):
        chain = two_state()
        op = GeneratorOperator.from_chain(chain, representation="dense")
        np.testing.assert_array_equal(op.dense(), chain.generator_matrix())

    def test_sparse_agrees_with_dense(self):
        chain = ring_chain(12)
        dense = GeneratorOperator.from_chain(chain, representation="dense")
        sparse = GeneratorOperator.from_chain(chain, representation="sparse")
        assert sparse.representation == "sparse"
        np.testing.assert_allclose(
            sparse.sparse().toarray(), dense.dense(), atol=0.0
        )

    def test_sparse_path_never_densifies(self):
        chain = ring_chain(8)
        op = GeneratorOperator.from_chain(chain, representation="sparse")
        assert sp.issparse(op.sparse())
        assert op.nnz == 8 + 8  # one arc plus one diagonal per state

    def test_auto_stays_dense_below_the_state_floor(self):
        op = GeneratorOperator.from_chain(two_state())
        assert op.representation == "dense"

    def test_auto_goes_sparse_for_large_sparse_chains(self):
        chain = ring_chain(SPARSE_STATE_FLOOR)
        op = GeneratorOperator.from_chain(chain)
        assert op.representation == "sparse"

    def test_with_representation_round_trips(self):
        chain = ring_chain(6)
        dense = GeneratorOperator.from_chain(chain, representation="dense")
        sparse = dense.with_representation("sparse")
        back = sparse.with_representation("dense")
        np.testing.assert_allclose(back.dense(), dense.dense(), atol=0.0)


class TestApply:
    def test_apply_is_vector_times_q_both_representations(self):
        chain = ring_chain(7)
        v = np.linspace(0.0, 1.0, 7)
        v /= v.sum()
        dense = GeneratorOperator.from_chain(chain, representation="dense")
        sparse = GeneratorOperator.from_chain(chain, representation="sparse")
        expected = v @ dense.dense()
        np.testing.assert_allclose(dense.apply(v), expected, atol=1e-15)
        np.testing.assert_allclose(sparse.apply(v), expected, atol=1e-15)

    def test_uniformization_rate_is_max_exit_rate(self):
        chain = two_state(lam=1e-3, mu=0.25)
        op = GeneratorOperator.from_chain(chain)
        assert op.uniformization_rate() == pytest.approx(0.25)


#: The two forms every validation case runs on.
FORMS = {"dense": np.asarray, "sparse": sp.csr_matrix}

#: Malformed generators and the one message each must raise.  Where a
#: matrix breaks several rules, the first in check order wins.
MALFORMED = {
    "negative-off-diagonal": (
        [[-1.0, -1.0], [2.0, -2.0]], "negative off-diagonal"
    ),
    "negative-off-diagonal-and-bad-rows": (
        [[-1.0, -3.0], [2.0, -1.0]], "negative off-diagonal"
    ),
    "bad-row-sums": (
        [[-1.0, 2.0], [0.5, -0.5]], "rows do not sum to zero"
    ),
    "row-sum-off-at-scale": (
        [[-1e6, 1e6 + 0.1], [0.0, 0.0]], "rows do not sum to zero"
    ),
    "empty": (np.zeros((0, 0)), "empty generator"),
}

#: Well-formed generators, including deviations inside the tolerances.
WELL_FORMED = {
    "two-state": [[-1e-3, 1e-3], [0.25, -0.25]],
    "absorbing-row": [[-2.0, 2.0], [0.0, 0.0]],
    "tiny-negative-off-diagonal": [[-1.0, 1.0], [-1e-16, 1e-16]],
    "row-sum-within-scale": [[-1e6, 1e6 + 1e-3], [1.0, -1.0]],
}


class TestValidation:
    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_generator_rejected(self, form, case):
        matrix, message = MALFORMED[case]
        with pytest.raises(SolverError, match=message):
            validate_generator(FORMS[form](np.asarray(matrix, float)))

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("case", sorted(WELL_FORMED))
    def test_well_formed_generator_accepted(self, form, case):
        validate_generator(FORMS[form](np.asarray(WELL_FORMED[case])))

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_library_generators_accepted(self, form):
        for chain in (two_state(), ring_chain(12)):
            validate_generator(FORMS[form](chain.generator_matrix()))

    def test_sparse_duplicate_entries_are_summed(self):
        # Non-canonical CSR: two stored entries for (0, 1) that sum to
        # the rate the diagonal balances.
        q = sp.csr_matrix(
            (np.array([-2.0, 1.0, 1.0, 0.5, -0.5]),
             np.array([0, 1, 1, 0, 1]),
             np.array([0, 3, 5])),
            shape=(2, 2),
        )
        validate_generator(q)
        q.data[1] = -1.0
        with pytest.raises(SolverError, match="negative off-diagonal"):
            validate_generator(q)

    def test_from_matrix_rejects_non_square(self):
        with pytest.raises(SolverError, match="square"):
            GeneratorOperator.from_matrix(np.zeros((2, 3)))

    def test_as_operator_accepts_chain_matrix_and_operator(self):
        chain = two_state()
        from_chain = as_operator(chain)
        from_matrix = as_operator(chain.generator_matrix())
        np.testing.assert_array_equal(
            from_chain.dense(), from_matrix.dense()
        )
        assert as_operator(from_chain) is from_chain
