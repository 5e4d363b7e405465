(** Parser for the raw plan notation used by plan fixtures.

    The debug flag [recommend analyze --plan --raw] feeds a hand-written
    plan straight to {!Plan_check} — the only way to exercise the P-series
    diagnostics on plans the compiler would never produce.  The notation is
    line-oriented; nesting is 2-space indentation, [#] starts a comment.

    Headers:
    {v
    answer Q(x, y)          # children at depth 1 are the disjunct roots,
                            # each optionally headed by "disjunct N:"
    fixpoint reach          # then per stratum, at depth 0:
    stratum 0: {reach/2}    # numbered from 0, each IDB with its arity
      rule reach(x, y):     # the rule's single child is its full body,
        ...
      delta variant 1:      # then its semi-naive delta variants, each
        ...                 # with a single child
    v}

    Nodes: [true], [false], [scan R(t, ...)] (emitting every variable of
    the atom) or [scan R(t, ...) keep [v, ...]] (emitting the listed ones),
    [index-join R(t, ...)] or [index-join R(t, ...) keep [v, ...]] (one
    child; emitting every variable of the child and the atom, or the
    listed ones), [hash-join] and [anti-join] (two
    children), [filter C], [builtin C] where the condition [C] is
    [t OP t] (OP one of [= != < <= > >=]), a distance bound
    [dist[NAME](t, t) <= K], or a disjunction of these
    [c | c | ...], [extend [v, ...]], [project [v, ...]] (one child each), [union] (two
    children), [complement] (one child).  Terms: integers and double-quoted strings
    are constants, anything else a variable.  A node line may end with
    [vars [a, b]] to override the recomputed variable metadata (for
    ill-typed fixtures).  A trailing note set off by two spaces, [  [...]],
    is ignored: {!Qlang.Plan.pp} prints estimates and the plan headers'
    summaries that way, so every plan it prints — single disjunct, UCQ or
    fixpoint — reads back.  A parsed fixpoint carries no source program
    and no program constants.

    @raise Failure with a line number on malformed input. *)

val parse : string -> Qlang.Plan.t
(** Parse the raw plan text. *)
