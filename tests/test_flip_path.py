"""The flip path: cones reached by flipping equal the cones computed from
scratch at their interior weights, and lifted bases are initially reduced
without a second completion."""

import os

import pytest

import tfan.division
import tfan.fan
import tfan.inred
from tfan import (
    MonomialOrdering,
    Polynomial,
    groebner_cone_at,
    groebner_fan,
    is_initially_reduced,
    leading_term,
)
from tfan.cli import parse_problem
from tfan.exact import dot

from helpers import prime_stream_member

DEMO_IDEALS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "demos", "ideals")


def demo_case(name):
    with open(os.path.join(DEMO_IDEALS, name + ".ideal"), encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    return problem.ideal(), problem.tiebreak


def random_case(k):
    ideal = prime_stream_member(k)
    return ideal, tuple(range(ideal.nvars))


CASES = {
    "rand1": lambda: random_case(1),
    "rand2": lambda: random_case(2),
    "flip": lambda: demo_case("flip"),
    "fig1": lambda: demo_case("fig1"),
    "linear": lambda: demo_case("linear"),
    "worked3": lambda: demo_case("worked3"),
}


def sorted_leading_terms(basis):
    return sorted(leading_term(basis.ordering, g) for g in basis.elements)


@pytest.mark.parametrize("name", sorted(CASES))
def test_flipped_cones_match_cones_from_scratch(name):
    ideal, tiebreak = CASES[name]()
    fan = groebner_fan(ideal, tiebreak=tiebreak)
    assert len(fan.maximal_cones) > 1
    for cone in fan.maximal_cones:
        ordering = MonomialOrdering((cone.interior_weight,), tiebreak)
        fresh = groebner_cone_at(ordering, ideal.gens, ideal.prime)
        assert fresh.canonical_key() == cone.canonical_key()
        assert cone.basis.ordering == ordering
        assert is_initially_reduced(ordering, cone.basis.elements)
        assert sorted_leading_terms(cone.basis) == sorted_leading_terms(fresh.basis)
        # the weight and initial forms a cone reports are read off its basis
        own = cone.basis.ordering
        w = own.weights[0]
        assert cone.interior_weight == w
        assert all(dot(row, w) > 0 for row in cone.hcone.ineqs)
        assert cone.initial_forms == tuple(Polynomial.term(*leading_term(own, g))
                                           for g in cone.basis.elements)


def test_no_completion_after_a_flip(monkeypatch):
    """Only the start cone's generators are completed inside inred."""
    completions = []
    original = tfan.inred.standard_basis_views

    def counting(*args, **kwargs):
        completions.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tfan.inred, "standard_basis_views", counting)
    ideal, tiebreak = demo_case("flip")
    fan = groebner_fan(ideal, tiebreak=tiebreak)
    assert len(fan.maximal_cones) == 3
    assert len(completions) == 1


@pytest.mark.parametrize("name", ["rand2", "flip", "fig1", "linear", "worked3"])
def test_one_flip_per_new_cone(monkeypatch, name):
    """Every flip reaches a new cone: the start cone needs none."""
    flips = []
    original = tfan.fan.flip

    def counting(*args, **kwargs):
        flips.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tfan.fan, "flip", counting)
    ideal, tiebreak = CASES[name]()
    fan = groebner_fan(ideal, tiebreak=tiebreak)
    assert len(flips) == len(fan.maximal_cones) - 1


def test_p_minus_t_generator_needs_no_normal_form(monkeypatch):
    """Whole fans, with a declared prime and without, run no weak normal form."""
    def refuse(*args, **kwargs):
        raise AssertionError("mora_weak_nf called")

    monkeypatch.setattr(tfan.division, "mora_weak_nf", refuse)
    prime_case, generic_case = CASES["rand2"](), CASES["worked3"]()
    assert prime_case[0].prime is not None and generic_case[0].prime is None
    for ideal, tiebreak in (prime_case, generic_case):
        assert len(groebner_fan(ideal, tiebreak=tiebreak).maximal_cones) > 1
