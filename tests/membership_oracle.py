"""The per-prime membership contract, an independent check of `rt`.

The inductive contract says that if a prime p is tamely ramified with index
e in a G-extension, then class(p)^exp lies in R_t(k, G) for each
exponent (l-1)|G|/e_(l) of `steinitz.membership_exponents` (and for half of
it when that is even).  `membership_check` tests that on a computed R_t
through its member set alone.
"""

from steinitzcalc import grouptree
from steinitzcalc.classgroup import QuadField, Splitting, prime_class, splitting
from steinitzcalc.errors import InadmissibleError
from steinitzcalc.realizable import rt
from steinitzcalc.steinitz import membership_exponents


def membership_check(field: QuadField, tree, ram_scenarios, rt_result=None):
    """For scenarios (p, e): verify class(p)^exp lies in R_t(k, G) for every
    exponent of the per-prime membership contract (and the half exponent
    when even).

    Scenario admissibility is only e >= 2, e | |G| and p not inert; whether a
    cyclic inertia group of order e actually embeds in G is not re-verified.
    Returns one report dict per scenario; raises on inadmissible scenarios.
    """
    if rt_result is None:
        rt_result = rt(field, tree)
    members = rt_result.subgroup.members
    big_m = grouptree.order(tree)
    reports = []
    for p, e in ram_scenarios:
        if e < 2 or big_m % e:
            raise InadmissibleError(f"scenario e={e} does not divide |G|={big_m}")
        if splitting(p, field) is Splitting.INERT:
            raise InadmissibleError(f"scenario p={p} is inert in {field}")
        cls = prime_class(p, field)
        checks = []
        for l, exp, half in membership_exponents(e, big_m):
            checks.append({"l": l, "exponent": exp, "ok": (cls**exp).index in members})
            if half is not None:
                checks.append(
                    {
                        "l": l,
                        "exponent": half,
                        "half": True,
                        "ok": (cls**half).index in members,
                    }
                )
        reports.append(
            {"p": p, "e": e, "ok": all(c["ok"] for c in checks), "checks": checks}
        )
    return reports
