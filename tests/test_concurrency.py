"""Thread-safety smoke tests: caches must be behaviorally transparent."""

import concurrent.futures
import random
import sys
import threading

from cmfields.closure import complex_conjugation
from cmfields.cmreflex import cm_check, enumerate_cm_types, reflex_norm_elem
from cmfields.embeddings import certified_embeddings
from cmfields.ideals import FracIdeal, prime_split
from cmfields.numfield import NumberField
from cmfields.orders import maximal_order
from cmfields.unipoly import UniPoly


def test_parallel_reflex_norms_match_serial():
    field = NumberField(UniPoly([1, 1, 1, 1, 1]))
    cmf = cm_check(field)
    t = enumerate_cm_types(cmf)[0]
    rng = random.Random(1)
    elems = []
    while len(elems) < 24:
        e = field.element([rng.randint(-5, 5) for _ in range(4)])
        if not e.is_zero():
            elems.append(e)
    serial = [reflex_norm_elem(t, field, e).coords for e in elems]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda e: reflex_norm_elem(t, field, e).coords, elems))
    assert serial == parallel


def test_parallel_prime_split_and_embeddings():
    # fresh field objects so the caches are built under contention
    field = NumberField(UniPoly([7, 0, 1]))
    O = maximal_order(field)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    def work(p):
        splits = prime_split(p, O)
        embs = certified_embeddings(field, 128)
        prod = FracIdeal.unit_ideal(O)
        for P in splits:
            prod = prod * P**P.e
        return (
            prod == FracIdeal.principal(O, field.one() * p),
            tuple(e.root_index for e in embs),
        )

    with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(work, primes * 3))
    assert all(ok for ok, _ in results)
    assert len({idx for _, idx in results}) == 1


def test_parallel_isogeny_class_enumeration_is_order_independent():
    from cmfields.latticeav import isogeny_classes

    field = NumberField(UniPoly([5, 0, 1]))
    cmf = cm_check(field)
    t = enumerate_cm_types(cmf)[0]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        runs = list(pool.map(lambda _: [m.lattice for m in isogeny_classes(cmf, t)], range(6)))
    assert all(r == runs[0] for r in runs)


def test_fresh_equal_fields_agree_across_threads():
    # six threads, each with its own field object for the same polynomial,
    # race through the per-field memo: all must get one stored result
    coeffs = [11, 0, 7, 0, 1]
    start = threading.Barrier(6)

    def work(_):
        K = NumberField(UniPoly(coeffs))
        start.wait(timeout=60)
        embs = certified_embeddings(K, 128)
        conj = complex_conjugation(K)
        return (
            K,
            embs,
            tuple(e.root_index for e in embs),
            tuple(e.conj_index() for e in embs),
            conj.image_of_generator.coords,
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, i) for i in range(6)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len({id(K) for K, *_ in results}) == 6
    assert all(r[1] is results[0][1] for r in results)
    assert len({r[2:] for r in results}) == 1
    _, _, indices, conj_indices, conj_coords = results[0]
    assert indices == (0, 1, 2, 3)
    for i in indices:
        assert conj_indices[i] != i and conj_indices[conj_indices[i]] == i
    assert conj_coords != (0, 1, 0, 0)
