"""The fault catalogue: program faults that the tests must catch.

Each row names one fault: a file under ``src/lefthull/``, the exact source
line it changes (which occurs exactly once in that file), the line that
replaces it, and the pytest node ids of which at least one fails with the
fault in place.  ``test_faults.py`` checks that every line is still there;
``run_faults.py`` applies each row to a copy of the checkout and runs its
tests.
"""

from collections import namedtuple

Fault = namedtuple("Fault", "name file line replacement tests")

FAULTS = (
    Fault("parse-skips-contains", "semigroups.py",
          "        self._check(x)\n",
          "        pass\n",
          ("tests/test_cli.py"
           "::test_a_generator_parse_refuses_exits_2[num23-1]",
           "tests/test_backend_oracle.py"
           "::test_parse_accepts_what_the_stated_bodies_accepted")),
    Fault("parse-reads-tuples-on-int-backends", "semigroups.py",
          "            if isinstance(self.identity(), tuple):\n",
          "            if True:\n",
          ("tests/test_semigroups.py"
           "::test_render_parse_round_trip[NumericalSemigroup<2,3>]",
           "tests/test_semigroups.py"
           "::test_render_parse_round_trip[FiniteTable(order 5)]")),
    Fault("axb-window-off-key-order", "semigroups.py",
          "                       for b in range(-bound, bound + 1)),"
          " key=self.key)\n",
          "                       for b in range(-bound, bound + 1)),"
          " key=lambda x: x[::-1])\n",
          ("tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]",
           "tests/test_semigroups.py"
           "::test_windows_are_sorted_and_duplicate_free[AxPlusB]")),
    Fault("group-key-not-the-value", "semigroups.py",
          "        return g\n",
          "        return 0\n",
          ("tests/test_pinned_outputs.py"
           "::test_output_is_pinned[hull--length3-num23]",
           "tests/test_pinned_outputs.py"
           "::test_output_is_pinned[hull--length3-cone2]")),
    Fault("group-element-of-off-s", "semigroups.py",
          "        return g if self.contains(g) else None\n",
          "        return g\n",
          ("tests/test_backend_oracle.py"
           "::test_group_element_of_agrees_with_the_stated_bodies",)),
    Fault("free-window-one-level-short", "semigroups.py",
          "        return [w for n in range(bound + 1)"
          " for w in product(letters, repeat=n)]\n",
          "        return [w for n in range(bound)"
          " for w in product(letters, repeat=n)]\n",
          ("tests/test_semigroups.py::test_free_monoid_window_is_length_lex",
           "tests/test_acceptance.py"
           "::test_criterion_05_relation_suites_and_expectation_loop")),
    Fault("atom-memo-keyed-s-t", "hull.py",
          "    a = sg._atoms.get((t, s))\n",
          "    a = sg._atoms.get((s, t))\n",
          ("tests/test_hull_memos.py"
           "::test_memos_agree_with_the_bodies_that_keep_nothing",)),
    Fault("action-memo-keyed-without-window", "hull.py",
          "    known = W.actions.get(f)\n",
          "    known = next((w.actions[f] for w in sg._windows.values()"
          " if f in w.actions), None)\n",
          ("tests/test_hull_memos.py"
           "::test_memos_agree_with_the_bodies_that_keep_nothing",)),
    Fault("row-memo-keyed-without-op", "hull.py",
          "    row = W.rows.get((op, a))\n",
          "    row = next((r for (_, b), r in W.rows.items() if b == a),"
          " None)\n",
          ("tests/test_hull_memos.py"
           "::test_window_answers_agree_with_the_bodies_that_keep_nothing",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]")),
    Fault("intertwiner-boundary-safe", "operators.py",
          "            out = action.boundary"
          "  # the columns left out of the safe core\n",
          "            out = frozenset()\n",
          ("tests/test_operators.py"
           "::test_suites_agree_with_their_matrix_bodies[axb-2]",
           "tests/test_pinned_outputs.py"
           "::test_matrix_exports_are_pinned[matrix-axb]")),
    Fault("intertwiner-left-side-untested", "operators.py",
          "            if len(set(lhs.values())) != len(lhs):\n",
          "            if False:\n",
          ("tests/test_operators.py"
           "::test_intertwiner_left_side_is_tested_for_injectivity",)),
    Fault("covariance-safe-off-mul", "operators.py",
          "            safe = _bits(j for j, u in enumerate("
          "window_row(sg, \"_ldiv\", s, W))\n",
          "            safe = _bits(j for j, u in enumerate("
          "window_row(sg, \"_mul\", s, W))\n",
          ("tests/test_word_oracle.py"
           "::test_covariance_safe_core_matches_step_interpreter[cone2-None]",
           "tests/test_pinned_outputs.py"
           "::test_matrix_exports_are_pinned[matrix-cone2]")),
    Fault("cs-state-key-drops-safe-set", "operators.py",
          "                    state = nxt.get(key)\n",
          "                    state = next((v for k, v in nxt.items()"
          " if k[:2] == key[:2]), None)\n",
          ("tests/test_word_oracle.py"
           "::test_merged_walk_matches_level_walk[cone2-3]",
           "tests/test_pinned_outputs.py"
           "::test_matrix_exports_are_pinned[matrix--length3-axb]")),
    Fault("window-answers-for-any-backend", "semigroups.py",
          "            else Window(elements)\n",
          "            else elements if isinstance(elements, Window)"
          " else Window(elements)\n",
          ("tests/test_hull_memos.py"
           "::test_a_window_answers_only_for_the_backend_that_built_it",)),
    Fault("domain-memo-keyed-by-h", "hull.py",
          "    dom = sg._domains.get((f.dom, h))\n",
          "    dom = next((v for (X, g), v in sg._domains.items() if g == h),"
          " None)\n",
          ("tests/test_hull_memos.py"
           "::test_compose_agrees_with_the_body_that_keeps_nothing[free2]",
           "tests/test_pinned_outputs.py"
           "::test_output_is_pinned[check--length3-axb]")),
    Fault("domain-memo-keyed-by-dom-and-grade", "hull.py",
          "    dom = sg._domains.get((f.dom, h))\n",
          "    dom = next((v for (X, g), v in sg._domains.items()"
          " if X == f.dom and g.grade == h.grade), None)\n",
          ("tests/test_hull_memos.py"
           "::test_compose_agrees_with_the_body_that_keeps_nothing[cone2]",
           "tests/test_hull.py"
           "::test_inverse_semigroup_axioms[PositiveCone(2)]")),
    Fault("domain-memo-keeps-the-meet", "hull.py",
          "        dom = sg._domains[f.dom, h] = cal.pullback(h.grade, f.dom,"
          " h.dom)\n",
          "        dom = cal.pullback(h.grade, f.dom, h.dom);"
          " sg._domains[f.dom, h] = cal.intersect(f.dom,"
          " cal.image(h.grade, h.dom))\n",
          ("tests/test_hull_memos.py"
           "::test_compose_agrees_with_the_body_that_keeps_nothing[axb]",
           "tests/test_pinned_outputs.py"
           "::test_output_is_pinned[check--length3-axb]")),
    Fault("intertwiner-keeps-what-star-f-f-moves", "operators.py",
          "                                 if compose(sg, ff, ls) == ls])\n",
          "                                 if compose(sg, ff, ls) != ls])\n",
          ("tests/test_operators.py"
           "::test_relation_suites_pass[FreeMonoid(2)]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-free2]")),
    Fault("parse-reads-unrendered-text", "semigroups.py",
          "        if self.render(x) != \"\".join(text.split()):\n",
          "        if False:\n",
          ("tests/test_backend_oracle.py"
           "::test_parse_refuses_text_that_render_never_prints[AxPlusB]",
           "tests/test_cli.py"
           "::test_a_generator_parse_refuses_exits_2[num23-5_0]")),
    Fault("transpose-keeps-the-map", "matrices.py",
          "                      {i: j for j, i in self.entries.items()})\n",
          "                      {j: i for j, i in self.entries.items()})\n",
          ("tests/test_matrices.py::test_transpose",)),
    Fault("columns-agree-reads-one-column", "matrices.py",
          "        return all(mine.get(j) == theirs.get(j) for j in cols)\n",
          "        return all(mine.get(j) == theirs.get(j)"
          " for j in sorted(cols)[:1])\n",
          ("tests/test_matrices.py::test_column_and_agreement",)),
    Fault("crt-modulus-max", "ideals.py",
          "    return (b + a * k) % l, l\n",
          "    return (b + a * k) % l, max(a, c)\n",
          ("tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]",)),
    Fault("crt-wrong-class-for-2-and-15", "ideals.py",
          "    return (b + a * k) % l, l\n",
          "    return (b + a * k + ({a, c} == {2, 15})) % l, l\n",
          ("tests/test_lattice_oracle.py"
           "::test_reachable_order_agrees_with_the_row_build"
           "[axb-primes-depth3]",
           "tests/test_pinned_outputs.py"
           "::test_parsed_generator_output_is_pinned"
           "[check--depth3-axb-primes]")),
    Fault("axb-intersect-asymmetric", "ideals.py",
          "        return _crt(*X, *Y) or EMPTY\n",
          "        return X if (X, Y) == ((0, 2), (0, 3))"
          " else _crt(*X, *Y) or EMPTY\n",
          ("tests/test_lattice_oracle.py"
           "::test_reachable_order_agrees_with_the_row_build"
           "[axb-primes-depth3]",
           "tests/test_pinned_outputs.py"
           "::test_parsed_generator_output_is_pinned"
           "[check--depth3-axb-primes]")),
    Fault("free-meet-the-shorter-word", "ideals.py",
          "            return w\n",
          "            return v\n",
          ("tests/test_ideals.py"
           "::test_canonical_matches_oracle_on_windows[FreeMonoid(2)]",)),
    Fault("closure-meets-only-earlier-reachables", "ideals.py",
          "            row = dict(zip(map(meet, family, repeat(r)),"
          " family.values()))\n",
          "            row = dict(zip(map(meet, keys[:keys.index(r)],"
          " repeat(r)), reach))\n",
          ("tests/test_signatures.py"
           "::test_closure_agrees_with_the_keyed_semi_naive_closure"
           "[cone6-depth3]",
           "tests/test_pinned_outputs.py"
           "::test_large_lattice_output_is_pinned[filters--depth2-cone6]")),
    Fault("closure-found-members-left-unmet", "ideals.py",
          "            row = dict(zip(map(meet, family, repeat(r)),"
          " family.values()))\n",
          "            row = {meet(f, r): X for f, X in family.items()"
          " if f in reached}\n",
          ("tests/test_signatures.py"
           "::test_signature_path_intersects_once_per_new_member[cone3]",
           "tests/test_signatures.py"
           "::test_closure_agrees_with_the_keyed_semi_naive_closure"
           "[num-10-11-depth3]")),
    Fault("axb-translate-multiplies-on-the-right", "ideals.py",
          "        return self.principal(self.sg._mul(s, X))\n",
          "        return self.principal(self.sg._mul(X, s))\n",
          ("tests/test_derived_ideal_ops.py"
           "::test_axb_translation_by_the_product_agrees_with_the_image"
           "_of_embed",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]")),
    Fault("pullback-drops-the-mask-below-b", "ideals.py",
          "        return self._canonical(self._below(D, b) & xb, b)\n",
          "        return self._canonical(self.sg.member_bits(b) & xb, b)\n",
          ("tests/test_pullback.py"
           "::test_pullback_is_the_default_and_the_member_walk"
           "[lhbench/num-3-5-7]",
           "tests/test_hull_memos.py"
           "::test_compose_agrees_with_the_body_that_keeps_nothing[num23]")),
    Fault("pullback-without-the-range-image", "ideals.py",
          "        self._image(g, D)\n",
          "        pass\n",
          ("tests/test_pullback.py"
           "::test_a_grade_off_s_raises_on_both_paths[<3,5,7>]",
           "tests/test_pullback.py"
           "::test_a_grade_off_s_raises_on_both_paths[<4,6>]")),
    Fault("numerical-key-orders-by-the-mask-int", "ideals.py",
          "        return X[0], tuple(set_bits(X[1]))\n",
          "        return X\n",
          ("tests/test_pinned_outputs.py"
           "::test_large_lattice_output_is_pinned[filters--depth3-num-10-11]",
           "tests/test_numerical_bits.py"
           "::test_key_sorts_as_the_tuple_pairs[<10,11>]")),
    Fault("numerical-canonical-mask-uncut", "ideals.py",
          "        return n, bits & ((1 << n) - 1)\n",
          "        return n, bits\n",
          ("tests/test_pinned_outputs.py::test_output_is_pinned[check-num23]",
           "tests/test_numerical_bits.py"
           "::test_bitset_operations_match_tuple_loops[<2,3>]")),
    Fault("cone-pullback-takes-the-min-corner", "ideals.py",
          "        return tuple(map(max, D, map(sub, X, g)))\n",
          "        return tuple(map(min, D, map(sub, X, g)))\n",
          ("tests/test_pullback.py"
           "::test_pullback_is_the_default_and_the_member_walk"
           "[shipped/cone2]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-cone2]")),
    Fault("free-pullback-drops-the-rest-of-x", "ideals.py",
          "            return D + X[len(y):]\n",
          "            return D\n",
          ("tests/test_pullback.py"
           "::test_pullback_is_the_default_and_the_member_walk"
           "[shipped/free2]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-free2]")),
    Fault("window-positions-on-any-window", "ideals.py",
          "        if X is EMPTY or not W or W is not"
          " self.sg._windows.get(len(W)):\n",
          "        if X is EMPTY or not W:\n",
          ("tests/test_pullback.py"
           "::test_a_window_not_built_by_the_backend_takes_the_scan"
           "[gapped]",)),
    Fault("window-positions-to-the-last-point-excluded", "ideals.py",
          "                         set_bits(self._below(X, W[-1] + 1))))\n",
          "                         set_bits(self._below(X, W[-1]))))\n",
          ("tests/test_pullback.py"
           "::test_window_positions_is_the_scan_on_own_windows[20-<3,5,7>]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-num23]")),
    Fault("filter-meet-of-first-member", "filters.py",
          "        lattice.keys.__getitem__, set_bits(members)))]\n",
          "        lattice.keys.__getitem__, set_bits(members)[:1]))]\n",
          ("tests/test_filters.py::test_filter_iff_zero_one_homomorphism",
           "tests/test_pinned_outputs.py::test_output_is_pinned[filters-axb]")),
    Fault("filters-miss-the-last-element", "filters.py",
          "    for i in range(lattice.zero):\n",
          "    for i in range(lattice.zero - 1):\n",
          ("tests/test_filters.py::test_chain_filter_counts",
           "tests/test_pinned_outputs.py::test_output_is_pinned[filters-axb]")),
    Fault("closure-drops-the-last-reachable-ideal", "ideals.py",
          "    for r, R in reached.items():\n",
          "    for r, R in list(reached.items())[:-1]:\n",
          ("tests/test_lattice_oracle.py"
           "::test_reachable_order_agrees_with_the_row_build[cone2]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-cone2]")),
    Fault("cone-signature-bit-flipped", "ideals.py",
          "                sum((full >> a << a) << k * side"
          " for k, a in enumerate(p))\n",
          "                sum((full >> a << a) << k * side"
          " for k, a in enumerate(p)) ^ (p == (1, 1))\n",
          ("tests/test_lattice_oracle.py"
           "::test_reachable_order_agrees_with_the_row_build[cone2]",
           "tests/test_signatures.py"
           "::test_closure_and_table_agree_with_pairwise_oracle[cone2]")),
    Fault("window-positions-drop-a-column-of-one-ideal", "ideals.py",
          "            self._member, W, repeat(X))))\n",
          "            self._member, W, repeat(X))))[:-1 if X == self.principal("
          "self.sg.generators()[0]) else None]\n",
          ("tests/test_operators.py"
           "::test_semilattice_suite_matches_oracle_on_configs[cone2]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]")),
    Fault("lattice-rows-skip-the-missing-meet", "filters.py",
          "            if not all(map(by_key.__contains__, row)):\n",
          "            if False:\n",
          ("tests/test_operators.py::test_lattice_build_rejects_a_missing_meet",
           )),
    Fault("lattice-skips-the-top-law", "filters.py",
          "            if R == self.top and 0 in flags[-1] or \\\n",
          "            if R == self.top and False or \\\n",
          ("tests/test_signatures.py"
           "::test_a_full_ideal_signature_missing_a_point_breaks_the_top_law",
           )),
    Fault("lattice-takes-a-member-no-meet-of-reachables", "filters.py",
          "                    != keys[i]:\n",
          "                    != keys[i] and False:\n",
          ("tests/test_signatures.py"
           "::test_a_member_that_is_no_meet_of_reachable_ideals_fails_the"
           "_lattice",)),
    Fault("up-set-bit-flipped", "filters.py",
          "            up.append(reduce(and_, compress(outs, map(not_, rx)),"
          " full))\n",
          "            up.append(reduce(and_, compress(outs, map(not_, rx)),"
          " full) ^ (i == 1))\n",
          ("tests/test_lattice_oracle.py"
           "::test_reachable_order_agrees_with_the_row_build[cone2]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[filters-axb]")),
    Fault("lattice-names-failures-in-reachable-order", "filters.py",
          "            self._up_sets(self.elements)\n",
          "            self._up_sets(reachable)\n",
          ("tests/test_checks.py"
           "::test_missing_meet_fails_closure_family_and_filters",)),
    Fault("subset-compares-the-meet-with-y", "ideals.py",
          "        return self.intersect(X, Y) == X\n",
          "        return self.intersect(X, Y) == Y\n",
          ("tests/test_ideals.py::test_empty_propagates",
           "tests/test_ideals.py::test_independence_witness_union_is_exact")),
    Fault("semilattice-fold-skips-a-member", "operators.py",
          "                keys.__getitem__, set_bits(C)), top))\n",
          "                keys.__getitem__, set_bits(C)[:-1]), top))\n",
          ("tests/test_operators.py"
           "::test_semilattice_suite_matches_oracle_on_configs[cone2]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]")),
    Fault("pair-classes-v-t-star-off-mul", "operators.py",
          "    ldiv = {t: window_row(sg, \"_ldiv\", t, W) + (OUT,)"
          " for t in graph.ends}\n",
          "    ldiv = {t: window_row(sg, \"_mul\", t, W) + (OUT,)"
          " for t in graph.ends}\n",
          ("tests/test_word_oracle.py"
           "::test_pair_classes_match_the_pair_by_pair_build[cyc12-2]",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]")),
    Fault("pair-classes-undefined-at-out", "operators.py",
          "    undefined = {t: [u is None for u in row]"
          " for t, row in ldiv.items()}\n",
          "    undefined = {t: [u is OUT for u in row]"
          " for t, row in ldiv.items()}\n",
          ("tests/test_word_oracle.py"
           "::test_pair_classes_match_the_pair_by_pair_build[free2-2]",
           "tests/test_word_oracle.py"
           "::test_pair_classes_match_the_pair_by_pair_build[cone2-3]")),
    Fault("hull-graph-star-of-s", "hull.py",
          "        star_t = star(sg, _lambda(sg, t)) if new else None\n",
          "        star_t = star(sg, _lambda(sg, new[0])) if new else None\n",
          ("tests/test_hull_memos.py"
           "::test_hull_graph_takes_one_star_per_letter",
           "tests/test_pinned_outputs.py::test_output_is_pinned[check-axb]")),
    Fault("table-row-check-admits-n", "semigroups.py",
          "                    or min(row) < 0 or max(row) >= n:\n",
          "                    or min(row) < 0 or max(row) > n:\n",
          ("tests/test_associativity.py"
           "::test_row_check_gives_the_oracle_message[equal-to-n]",)),
    Fault("normal-form-checks-the-first-element-only", "checks.py",
          "        for f in dict.fromkeys(fs):"
          "  # once each: a function of f alone\n",
          "        for f in list(dict.fromkeys(fs))[:1]:\n",
          ("tests/test_checks.py"
           "::test_normal_form_runs_once_per_distinct_element",)),
)
