"""Reference for the bounded integer search: a plain backtracker that
enumerates every variable over the whole domain and checks each row the
moment its last variable is assigned.  It shares nothing with the
factored search but the equation table, so tests hold the two equal.

The variable order is its own, row by row: the row with the fewest
unassigned variables goes next, so rows close as early as they can.
The factored search plans by groups of rows instead; the order changes
only the speed, never the result.
"""

from commcalc.obstruction import VARIABLES, obstruction_system


def _row_order(rows):
    order, pending = [], [{v for (_, m) in eq.terms for v in m} for eq in rows]
    while pending:
        row = min(pending, key=lambda names: (len(names - set(order)), sorted(names)))
        pending.remove(row)
        order += sorted(row - set(order))
    return order


def reference_search(bound, labels=None):
    """(variables in canonical order, sorted solutions with |v| <= bound)."""
    system = obstruction_system()
    rows = list(system.subsystem(labels) if labels is not None else system)
    rows = [eq for eq in rows if eq.terms]
    used = _row_order(rows)
    depth_of = {v: i for i, v in enumerate(used)}

    checks_at = [[] for _ in range(len(used) + 1)]
    for eq in rows:
        depth = max(depth_of[v] for (_, m) in eq.terms for v in m) + 1
        compiled = [(c, tuple(depth_of[v] for v in m)) for (c, m) in eq.terms]
        checks_at[depth].append((compiled, eq.target))

    domain = range(-bound, bound + 1)
    canon = tuple(v for v in VARIABLES if v in depth_of)
    if not used:
        return canon, [()]
    found = []
    val = [0] * len(used)

    def rec(d):
        if d == len(used):
            found.append(tuple(val[depth_of[v]] for v in canon))
            return
        for x in domain:
            val[d] = x
            ok = True
            for compiled, target in checks_at[d + 1]:
                total = 0
                for c, idxs in compiled:
                    t = c
                    for i in idxs:
                        t *= val[i]
                    total += t
                if total != target:
                    ok = False
                    break
            if ok:
                rec(d + 1)

    rec(0)
    return canon, sorted(found)
