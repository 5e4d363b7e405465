(* Tests for the serializable rating-expression language
   ([Core.Rating_expr]): evaluation, print/parse round trips, parse errors
   and monotonicity inference. *)

open Core

let check = Alcotest.(check bool)

module E = Rating_expr

let pkg =
  Package.of_tuples (List.map Relational.Tuple.of_ints [ [ 1; 10 ]; [ 2; 20 ] ])

let eval_expr str p = Rating.eval (E.to_rating (E.parse str)) p

let test_expr_eval () =
  Alcotest.(check (float 1e-9)) "count" 2. (eval_expr "count" pkg);
  Alcotest.(check (float 1e-9)) "sum" 30. (eval_expr "sum(1)" pkg);
  Alcotest.(check (float 1e-9)) "arith" 58. (eval_expr "2*sum(1) - count" pkg);
  Alcotest.(check (float 1e-9)) "precedence" 23.
    (eval_expr "count + 10 * count + 1" pkg);
  Alcotest.(check (float 1e-9)) "unary minus" (-2.) (eval_expr "-count" pkg);
  Alcotest.(check (float 1e-9)) "parens" 22. (eval_expr "(count + 9) * count" pkg);
  Alcotest.(check (float 1e-9)) "min" 1. (eval_expr "min(0)" pkg);
  Alcotest.(check (float 1e-9)) "avg" 15. (eval_expr "avg(1)" pkg);
  Alcotest.(check (float 1e-9)) "onempty used" 42.
    (eval_expr "onempty(42, count)" Package.empty);
  Alcotest.(check (float 1e-9)) "onempty unused" 2.
    (eval_expr "onempty(42, count)" pkg);
  check "card on empty" true (eval_expr "card" Package.empty = infinity)

let test_expr_round_trip () =
  List.iter
    (fun str ->
      let e = E.parse str in
      let e' = E.parse (E.to_string e) in
      check ("round trip: " ^ str) true (e = e'))
    [
      "count"; "card"; "sum(3)"; "2*sum(1) - count"; "-(min(0) + max(1))";
      "onempty(-1, avg(2))"; "(count + 1) * (count - 1)";
    ]

let test_expr_errors () =
  List.iter
    (fun str ->
      try
        ignore (E.parse str);
        Alcotest.fail ("expected parse failure: " ^ str)
      with Failure _ -> ())
    [ ""; "sum"; "sum(x)"; "count +"; "frobnicate(1)"; "(count"; "1 2" ]

let test_expr_monotone_inference () =
  let mono str = Rating.is_monotone (E.to_rating (E.parse str)) in
  check "count monotone" true (mono "count");
  check "card monotone" true (mono "card");
  check "max monotone" true (mono "max(0)");
  check "2*count monotone" true (mono "2 * count");
  check "count - 1 not claimed" false (mono "count - 1");
  check "sum not claimed" false (mono "sum(0)")

let () =
  Alcotest.run "rating-expr"
    [
      ( "rating-expr",
        [
          Alcotest.test_case "evaluation" `Quick test_expr_eval;
          Alcotest.test_case "print/parse round trips" `Quick test_expr_round_trip;
          Alcotest.test_case "parse errors" `Quick test_expr_errors;
          Alcotest.test_case "monotonicity inference" `Quick test_expr_monotone_inference;
        ] );
    ]
