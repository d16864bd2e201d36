from drinfeld_cm import modforms, sweeps
from drinfeld_cm.bounds import andre_oort_search
from drinfeld_cm.ffield import field, quadratic_extension
from drinfeld_cm.laurent import LaurentSeries

F3 = field(3)


def test_andre_oort_search_evaluates_each_point_once(monkeypatch):
    real_sweep, real_eval_j = sweeps.sweep_moduli, modforms.eval_j
    calls = []

    def sweep_moduli(*args, **kwargs):
        out = real_sweep(*args, **kwargs)
        calls.clear()  # count only the search's own evaluations
        return out

    def eval_j(pt, prec, **kwargs):
        calls.append((pt, prec))
        return real_eval_j(pt, prec, **kwargs)

    monkeypatch.setattr(sweeps, "sweep_moduli", sweep_moduli)
    monkeypatch.setattr(modforms, "eval_j", eval_j)
    rep = andre_oort_search(F3, 9, 8)
    assert (rep["moduli"], rep["pairs_checked"], len(rep["hits"])) == (21, 90, 6)
    assert len(calls) == len({id(pt) for pt, _ in calls}) == 21
    # the premise: a truncated evaluation equals a fresh one at the lower precision
    for pt, prec in calls:
        cdesc = None if pt.order.field.infinite_type == "inert" else quadratic_extension(F3)
        high = real_eval_j(pt, prec, cdesc=cdesc).value.truncate(12)
        low = real_eval_j(pt, 12, cdesc=cdesc).value
        assert prec > 12 and parts(high) == parts(low)


def parts(value):
    return (value,) if isinstance(value, LaurentSeries) else (value.x, value.y)
