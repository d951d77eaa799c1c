"""What el grounding ranges over: labeled entities near the query head only."""

from kglogic import FormulaArena, TripleStore, model_check, parse, score_query


def test_el_grounds_only_within_diamond_depth_of_head():
    # c has out-degree 2 > d, so el labels it, but c is no forward hop from h:
    # el never tries c = c, although that grounding holds at h
    store = TripleStore([("c", "R1", "h"), ("c", "R1", "x")])
    arena = FormulaArena()
    fid = parse("(<R1>=1 @c & @h)", arena)
    h, c = store.entity_id("h"), store.entity_id("c")
    assert store.out_degree[c] > 1
    direct = model_check(store, arena, fid, {"h": h, "c": c}).row_bits(fid)
    assert direct == [0, 1, 0]
    assert score_query(store, arena, fid, "el", 1, (h, "R")) == [0, 0, 0]
