"""The recursive minimum set cover that ``adversaries._exact_cover_size``
replaced; its recursion depth is the cover size.  The differential tests
compare the explicit-stack search against it on small set systems.  And
``pairwise_maximal``, the filter that ``adversaries._maximal`` replaced: it
tests every set against every kept set."""


def pairwise_maximal(sets) -> frozenset:
    pool = sorted(set(sets), key=len, reverse=True)
    out: list[frozenset] = []
    for s in pool:
        if not any(s < t for t in out):
            out.append(s)
    return frozenset(out)


def recursive_cover_size(universe: frozenset, sets: list[frozenset]) -> int:
    best = len(universe) + 1

    def rec(uncovered: frozenset, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if not uncovered:
            best = used
            return
        pivot = min(
            uncovered, key=lambda e: sum(1 for s in sets if e in s)
        )
        for s in sets:
            if pivot in s:
                rec(uncovered - s, used + 1)

    rec(universe, 0)
    return best
