(* Core Scheme AST: size, free variables, printing. *)

module A = Tailspace_ast.Ast
module E = Tailspace_expander.Expand

let expr s = E.expression_of_string s
let fv s = A.Iset.elements (A.free_vars (expr s))
let check_fv name s expected = Alcotest.(check (list string)) name expected (fv s)

let test_free_vars_basic () =
  check_fv "var" "x" [ "x" ];
  check_fv "const" "42" [];
  check_fv "lambda closes" "(lambda (x) x)" [];
  check_fv "lambda open" "(lambda (x) (f x y))" [ "f"; "y" ];
  check_fv "rest param bound" "(lambda args args)" [];
  check_fv "dotted rest" "(lambda (a . rest) (cons a rest))" [ "cons" ];
  check_fv "if" "(if a b c)" [ "a"; "b"; "c" ];
  check_fv "set! target free" "(set! x y)" [ "x"; "y" ];
  check_fv "call" "(f (g x))" [ "f"; "g"; "x" ];
  check_fv "nested" "(lambda (x) (f x (g y)))" [ "f"; "g"; "y" ]

let test_free_vars_shadowing () =
  check_fv "inner shadows" "(lambda (x) (lambda (x) x))" [];
  check_fv "let via lambda" "(let ((x 1)) (+ x y))" [ "+"; "y" ];
  check_fv "letrec self not free" "(letrec ((f (lambda (n) (f n)))) f)" [];
  check_fv "named let loop bound"
    "(let loop ((i n)) (if (zero? i) 0 (loop (- i 1))))"
    [ "-"; "n"; "zero?" ]

let test_size () =
  let check name s n = Alcotest.(check int) name n (A.size (expr s)) in
  check "const" "42" 1;
  check "var" "x" 1;
  check "call" "(f x)" 3;
  check "if" "(if a b c)" 4;
  check "lambda" "(lambda (x) x)" 2;
  check "set!" "(set! x 1)" 2

let test_size_positive_monotone () =
  (* |P| grows when a program is embedded in a larger one *)
  let inner = expr "(f x)" in
  let outer = A.If (inner, inner, inner) in
  Alcotest.(check bool) "wrapper larger" true (A.size outer > A.size inner)

let test_equal () =
  let a = expr "(lambda (x) (+ x 1))" in
  let b = expr "(lambda (x) (+ x 1))" in
  let c = expr "(lambda (y) (+ y 1))" in
  Alcotest.(check bool) "structural equal" true (A.equal a b);
  Alcotest.(check bool) "alpha-variants differ" false (A.equal a c)

let test_to_datum_roundtrip () =
  (* printing core syntax and re-expanding is the identity on core *)
  List.iter
    (fun s ->
      let e = expr s in
      let printed = A.to_string e in
      let e' = E.expression_of_string printed in
      Alcotest.(check bool) (s ^ " roundtrips") true (A.equal e e'))
    [
      "(quote a)";
      "(lambda (x y) (if x y (quote #f)))";
      "(set! z (lambda () (quote 1)))";
      "((lambda (x) x) (quote 42))";
      "(lambda args args)";
    ]

let test_const_printing () =
  Alcotest.(check string) "unspecified" "(quote #!unspecified)"
    (A.to_string (A.Quote A.C_unspecified));
  Alcotest.(check string) "undefined" "(quote #!undefined)"
    (A.to_string (A.Quote A.C_undefined));
  Alcotest.(check string) "nil" "(quote ())" (A.to_string (A.Quote A.C_nil))

let test_free_vars_of_list () =
  let es = [ expr "x"; expr "(f y)"; expr "42" ] in
  Alcotest.(check (list string)) "union" [ "f"; "x"; "y" ]
    (A.Iset.elements (A.free_vars_of_list es))

let () =
  Alcotest.run "ast"
    [
      ( "free-vars",
        [
          Alcotest.test_case "basic" `Quick test_free_vars_basic;
          Alcotest.test_case "shadowing" `Quick test_free_vars_shadowing;
          Alcotest.test_case "of list" `Quick test_free_vars_of_list;
        ] );
      ( "size-equal-print",
        [
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "size monotone" `Quick test_size_positive_monotone;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "to_datum roundtrip" `Quick test_to_datum_roundtrip;
          Alcotest.test_case "const printing" `Quick test_const_printing;
        ] );
    ]
