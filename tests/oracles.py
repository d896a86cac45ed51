"""Small independent helpers that several test modules use as oracles."""


def poly_eval(f, a):
    """f(a) for a field code a, by Horner's rule on the field tables."""
    field = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = field.add(field.mul(acc, a), c)
    return acc
