"""A stub kept only as a patch target of the benchmark's tracer.

Every word trace is an integer, so no module of the package computes in
Q(sqrt(mu)).  perfbench/tracing.py still wraps QuadReal.to_interval in
a span, so the class stays until the benchmark change drops that span
and its quadratic.to_interval metrics; this module goes with them.
"""


class QuadReal:
    def to_interval(self, precision_bits: int = 60):
        raise NotImplementedError("no module computes in Q(sqrt(mu))")
