"""``laws.law_step`` against its earlier statement, which built both
direction terms as lists before the sums: the two must agree bit for bit,
the sign of a zero included, on either side of ``singular_tol``.  Norms are
``math.hypot`` and every input a Python float, so no test here calls BLAS.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smoothsmc.laws import AdaptiveGains, law_step


def law_step_with_direction_lists(s, r, integral, gains, m, dt, singular_tol):
    """The oracle: ``D1 = s/r**(1/m)`` and ``D2 = s/r**(2/m)`` as lists,
    both +0.0 below ``singular_tol``, then the two sums of the law."""
    if r < singular_tol:
        D1 = D2 = [0.0] * len(s)
    else:
        q1, q2 = r ** (1.0 / m), r ** (2.0 / m)
        D1, D2 = [v / q1 for v in s], [v / q2 for v in s]
    L1, L2, L3, L4 = gains
    y = [L1 * d + L2 * v + i for d, v, i in zip(D1, s, integral)]
    return y, [i + dt * (L3 * d + L4 * v) for i, d, v in zip(integral, D2, s)]


def bits(values):
    return [v.hex() for v in values]


component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
gain = st.floats(1e-3, 1e3)


@st.composite
def law_inputs(draw):
    n = draw(st.sampled_from([1, 3, 5]))
    scale = draw(st.sampled_from([1.0, 1e-6, 1e-13]))
    s = [scale * v for v in draw(st.lists(component, min_size=n, max_size=n))]
    integral = draw(st.lists(component, min_size=n, max_size=n))
    gains = AdaptiveGains(*draw(st.lists(gain, min_size=4, max_size=4)))
    m, dt = draw(st.sampled_from([2.0, 2.5, 3.0, 4.0])), draw(st.floats(1e-5, 0.1))
    return s, integral, gains, m, dt


class TestLawStepIsItsEarlierStatement:
    @settings(max_examples=200, deadline=None)
    @given(inputs=law_inputs(), singular=st.booleans())
    @example(inputs=([-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0], AdaptiveGains(2.0, 2.5, 4.0, 30.0),
                     3.0, 1e-3), singular=True)
    @example(inputs=([-0.0, 1e-3, -0.0], [-0.0, -0.0, 0.0], AdaptiveGains(2.0, 2.5, 4.0, 30.0),
                     2.0, 1e-3), singular=False)
    def test_y_and_the_integral_are_bitwise_the_oracle(self, inputs, singular):
        s, integral, gains, m, dt = inputs
        r = math.hypot(*s)
        # a tolerance above the norm takes the singular branch, one below it the other
        if singular:
            tol = 2.0 * r if r > 0.0 else 1e-12
        else:
            assume(r > 0.0)
            tol = 0.5 * r
        got = law_step(s, r, integral, gains, m, dt, tol)
        want = law_step_with_direction_lists(s, r, integral, gains, m, dt, tol)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_a_singular_step_keeps_a_positive_zero_direction(self):
        # -0.0 everywhere: L2*v + i alone would be -0.0, the law gives +0.0
        y, new_integral = law_step([-0.0], 0.0, [-0.0], AdaptiveGains(1.0, 1.0, 1.0, 1.0),
                                   3.0, 1e-3)
        assert bits(y) == bits(new_integral) == [(0.0).hex()]
