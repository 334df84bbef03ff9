(* The alternative implementations of lib/engines: the tail-recursive
   SECD machine (compiler + runtime) and the denotational evaluator.
   Their answers must agree with the reference machines (the §16
   relation); the SECD machine's space behavior must match its
   proper/classic configuration. *)

module S = Tailspace_engines.Secd
module D = Tailspace_engines.Denotational
module M = Tailspace_core.Machine
module A = Tailspace_ast.Ast
module E = Tailspace_expander.Expand
module B = Tailspace_bignum.Bignum
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families

let input n = A.Quote (A.C_int (B.of_int n))

let secd_answer ?(proper = true) src n =
  let program = E.program_of_string src in
  let r = S.run_program ~proper_tail_calls:proper ~program ~input:(input n) () in
  match r.S.outcome with
  | S.Done a -> a
  | S.Error m -> "error: " ^ m
  | S.Aborted _ -> "fuel"

let reference_answer src n =
  let t = M.create_with M.Config.default in
  let program = E.program_of_string src in
  match (M.exec_program t ~program ~input:(input n)).M.outcome with
  | M.Done { answer; _ } -> answer
  | M.Stuck m -> "error: " ^ m
  | M.Aborted _ -> "fuel"

(* --- SECD compiler --- *)

let test_compile_shapes () =
  let code = S.compile (E.expression_of_string "(lambda (x) x)") in
  (match code with
  | [ S.IClosure { nparams = 1; variadic = false; body } ] ->
      Alcotest.(check bool) "body is local+return" true
        (body = [ S.ILocal (0, 0); S.IReturn ])
  | _ -> Alcotest.fail "unexpected compilation");
  let code = S.compile (E.expression_of_string "(f x)") in
  Alcotest.(check bool) "globals resolved by name" true
    (code = [ S.IGlobal "f"; S.IGlobal "x"; S.IApply 1 ])

let test_compile_lexical_addressing () =
  let code =
    S.compile (E.expression_of_string "(lambda (a b) (lambda (c) (g a c)))")
  in
  match code with
  | [ S.IClosure { body = [ S.IClosure { body; _ }; S.IReturn ]; _ } ] ->
      Alcotest.(check bool) "outer var at depth 1, inner at 0" true
        (body
        = [ S.IGlobal "g"; S.ILocal (1, 0); S.ILocal (0, 0); S.ITailApply 2 ])
  | _ -> Alcotest.fail "unexpected compilation"

let test_compile_tail_positions () =
  let rec has_instr p code =
    List.exists
      (fun i ->
        p i
        ||
        match i with
        | S.ISel (a, b) | S.ISelTail (a, b) -> has_instr p a || has_instr p b
        | S.IClosure { body; _ } -> has_instr p body
        | _ -> false)
      code
  in
  let code =
    S.compile (E.expression_of_string "(lambda (n) (if (zero? n) 0 (f n)))")
  in
  Alcotest.(check bool) "tail call compiled as ITailApply" true
    (has_instr (function S.ITailApply _ -> true | _ -> false) code);
  let classic =
    S.compile ~proper_tail_calls:false
      (E.expression_of_string "(lambda (n) (if (zero? n) 0 (f n)))")
  in
  Alcotest.(check bool) "classic mode has no ITailApply" false
    (has_instr (function S.ITailApply _ -> true | _ -> false) classic);
  (* non-tail calls stay IApply even in proper mode *)
  let code2 = S.compile (E.expression_of_string "(lambda (n) (+ 1 (f n)))") in
  Alcotest.(check bool) "operand call is IApply" true
    (has_instr (function S.IApply 1 -> true | _ -> false) code2)

(* --- SECD evaluation --- *)

let check_secd name src n expected =
  Alcotest.(check string) name expected (secd_answer src n)

let test_secd_answers () =
  check_secd "countdown" Families.separator_gc_tail 50 "0";
  check_secd "cps loop" Families.cps_loop 100 "5050";
  check_secd "fact"
    "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) fact" 20
    "2432902008176640000";
  check_secd "fib"
    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) fib" 15
    "610";
  check_secd "vectors"
    "(define (f n) (let ((v (make-vector n 0))) (vector-set! v 2 'x) \
     (vector-ref v 2))) f"
    5 "x";
  check_secd "lists" "(define (f n) (list n (cons n '()) (zero? n))) f" 3
    "(3 (3) #f)";
  check_secd "mutation"
    "(define (f n) (let ((p (cons 1 2))) (set-cdr! p n) p)) f" 9 "(1 . 9)";
  check_secd "find-leftmost" Families.find_leftmost_right_traverse 20
    "not-found";
  check_secd "variadic"
    "(define (f . xs) xs) (lambda (n) (f n n n))" 2 "(2 2 2)";
  check_secd "letrec via define"
    "(define (e? n) (if (zero? n) #t (o? (- n 1))))
     (define (o? n) (if (zero? n) #f (e? (- n 1))))
     e?"
    11 "#f"

let test_secd_matches_reference () =
  List.iter
    (fun (src, n) ->
      Alcotest.(check string)
        (Printf.sprintf "agrees at n=%d" n)
        (reference_answer src n) (secd_answer src n))
    [
      (Families.separator_stack_gc, 10);
      (Families.separator_gc_tail, 25);
      (Families.cps_loop, 40);
      ("(define (h n) (hanoi n)) (define (hanoi n) (if (zero? n) 0 (+ (hanoi (- n 1)) (+ 1 (hanoi (- n 1)))))) hanoi", 8);
      ("(lambda (n) ((lambda (x y) (- x y)) (* n n) n))", 7);
    ]

let test_secd_errors () =
  let got = secd_answer "(lambda (n) (car n))" 5 in
  Alcotest.(check bool) "car of number errors" true
    (String.length got > 6 && String.sub got 0 6 = "error:");
  let got = secd_answer "(lambda (n) (undefined-global n))" 1 in
  Alcotest.(check bool) "unbound global" true
    (String.length got > 6 && String.sub got 0 6 = "error:");
  let got = secd_answer "(lambda (n) ((lambda (a b) a) n))" 1 in
  Alcotest.(check bool) "arity" true
    (String.length got > 6 && String.sub got 0 6 = "error:")

let secd_peak ?(proper = true) src n =
  let program = E.program_of_string src in
  let r = S.run_program ~proper_tail_calls:proper ~program ~input:(input n) () in
  match r.S.outcome with
  | S.Done _ -> r.S.peak_words
  | _ -> Alcotest.fail "secd run failed"

let test_secd_tail_recursion_space () =
  (* proper: bounded (up to the log-size counter); classic: grows *)
  let p100 = secd_peak Families.separator_gc_tail 100 in
  let p1600 = secd_peak Families.separator_gc_tail 1600 in
  Alcotest.(check bool)
    (Printf.sprintf "proper stays flat (%d vs %d)" p100 p1600)
    true
    (p1600 < p100 + 32);
  let c100 = secd_peak ~proper:false Families.separator_gc_tail 100 in
  let c1600 = secd_peak ~proper:false Families.separator_gc_tail 1600 in
  Alcotest.(check bool)
    (Printf.sprintf "classic grows ~16x (%d vs %d)" c100 c1600)
    true
    (c1600 > 8 * c100)

(* Every empty frame is a word of its own, though all of them hold
   OCaml's one shared empty array: find-leftmost's nullary failure
   thunks push one each. Counting them as a single object read 1069 /
   7568 words on the classic machine; the tail-recursive machine's
   figures do not move. *)
let test_secd_empty_frames () =
  List.iter
    (fun (n, classic, proper) ->
      Alcotest.(check int)
        (Printf.sprintf "classic find-leftmost N=%d" n)
        classic
        (secd_peak ~proper:false Families.find_leftmost_right_traverse n);
      Alcotest.(check int)
        (Printf.sprintf "proper find-leftmost N=%d" n)
        proper
        (secd_peak Families.find_leftmost_right_traverse n))
    [ (32, 1100, 584); (256, 7823, 4494) ]

let test_secd_join_points () =
  (* non-tail conditionals must restore control correctly *)
  check_secd "nested non-tail ifs"
    "(lambda (n) (+ (if (zero? n) 10 20) (if (zero? n) 1 2)))" 0 "11";
  check_secd "if in operand position"
    "(lambda (n) (* (if (< n 5) 2 3) (+ n 1)))" 7 "24"

(* --- denotational evaluator --- *)

let deno_answer src =
  match D.eval (E.program_of_string src) with
  | D.Done a -> a
  | D.Error m -> "error: " ^ m
  | D.Aborted _ -> "fuel"

let test_denotational_basics () =
  Alcotest.(check string) "arith" "7" (deno_answer "(+ 1 (* 2 3))");
  Alcotest.(check string) "closures" "9"
    (deno_answer "(define (adder n) (lambda (x) (+ x n))) ((adder 4) 5)");
  Alcotest.(check string) "callcc" "42"
    (deno_answer "(+ 1 (call/cc (lambda (k) (k 41) 99)))");
  Alcotest.(check string) "apply" "10" (deno_answer "(apply + 1 2 '(3 4))");
  Alcotest.(check string) "state" "3"
    (deno_answer
       "(define n 0) (define (bump) (set! n (+ n 1))) (bump) (bump) (bump) n");
  Alcotest.(check string) "deep tail loop survives" "done"
    (deno_answer "(define (loop n) (if (zero? n) 'done (loop (- n 1)))) (loop 300000)")

let test_denotational_matches_corpus () =
  (* §16: every answer computed by the denotational semantics is
     computed by the reference implementations *)
  Corpus.all
  |> List.filter (fun (e : Corpus.entry) -> not e.Corpus.slow)
  |> List.iter (fun (e : Corpus.entry) ->
         match e.Corpus.checks with
         | (n, expected) :: _ -> (
             match
               D.eval_program ~program:(Corpus.program e) ~input:(input n) ()
             with
             | D.Done a ->
                 Alcotest.(check string)
                   (Printf.sprintf "%s(%d)" e.Corpus.name n)
                   expected a
             | D.Error m -> Alcotest.failf "%s: %s" e.Corpus.name m
             | D.Aborted r ->
                 Alcotest.failf "%s: aborted: %s" e.Corpus.name
                   (Tailspace_resilience.Resilience.abort_reason_message r))
         | [] -> ())

let gen_expr =
  (* closed, terminating programs; mirror of test_equivalence's shape *)
  let open QCheck.Gen in
  let const = map (fun n -> A.Quote (A.C_int (B.of_int n))) (int_range (-20) 20) in
  let var env =
    if env = [] then const
    else map (fun i -> A.Var (List.nth env (i mod List.length env))) (int_range 0 50)
  in
  let fresh = map (fun i -> Printf.sprintf "w%d" i) (int_range 0 500) in
  let rec go env depth =
    if depth = 0 then oneof [ const; var env ]
    else
      let sub = go env (depth - 1) in
      frequency
        [
          (2, const);
          (2, var env);
          ( 3,
            map3
              (fun op a b -> A.Call (A.Var op, [ a; b ]))
              (oneofl [ "+"; "-"; "*" ])
              sub sub );
          ( 2,
            map3 (fun a b c -> A.If (A.Call (A.Var "zero?", [ a ]), b, c)) sub sub sub );
          ( 2,
            fresh >>= fun x ->
            map2
              (fun init body ->
                A.Call (A.Lambda { params = [ x ]; rest = None; body }, [ init ]))
              sub
              (go (x :: env) (depth - 1)) );
          (1, map2 (fun a b -> A.Call (A.Var "cons", [ a; b ])) sub sub);
        ]
  in
  go [] 4

let arb = QCheck.make ~print:A.to_string gen_expr

(* Corollary 20 for programs that call [random]: the evaluator draws
   from the [Config.seed] of the machine it takes its world from, as
   every machine does. *)
let test_denotational_random () =
  let src = "(list (random 1000) (random 1000))" in
  let machine =
    match (M.exec_string (M.create_with M.Config.default) src).M.outcome with
    | M.Done { answer; _ } -> answer
    | _ -> Alcotest.fail "expected Done"
  in
  Alcotest.(check string) "two draws" machine (deno_answer src);
  let pk = Families.pk_program 2 in
  let deno =
    match D.eval_program ~program:(E.program_of_string pk) ~input:(input 6) () with
    | D.Done a -> a
    | D.Error m -> "error: " ^ m
    | D.Aborted _ -> "fuel"
  in
  Alcotest.(check string) "P_2 at N = 6" (reference_answer pk 6) deno;
  let seeded = M.create_with (M.Config.make ~seed:7 ()) in
  let machine =
    match (M.exec_string seeded src).M.outcome with
    | M.Done { answer; _ } -> answer
    | _ -> Alcotest.fail "expected Done"
  in
  let deno =
    match D.eval ~machine:seeded (E.program_of_string src) with
    | D.Done a -> a
    | D.Error m -> "error: " ^ m
    | D.Aborted _ -> "fuel"
  in
  Alcotest.(check string) "a supplied machine's seed" machine deno

let prop_three_implementations_agree =
  QCheck.Test.make ~name:"machine = SECD = denotational on random programs"
    ~count:150 arb (fun e ->
      let m = M.create_with M.Config.default in
      let machine =
        match (M.exec m e).M.outcome with
        | M.Done { answer; _ } -> answer
        | _ -> "fail"
      in
      let secd =
        match (S.run e).S.outcome with S.Done a -> a | _ -> "fail"
      in
      let deno =
        match D.eval e with
        | D.Done a -> a
        | D.Error _ | D.Aborted _ -> "fail"
      in
      String.equal machine secd && String.equal machine deno)

let () =
  Alcotest.run "engines"
    [
      ( "secd-compiler",
        [
          Alcotest.test_case "shapes" `Quick test_compile_shapes;
          Alcotest.test_case "lexical addressing" `Quick test_compile_lexical_addressing;
          Alcotest.test_case "tail positions" `Quick test_compile_tail_positions;
        ] );
      ( "secd-runtime",
        [
          Alcotest.test_case "answers" `Quick test_secd_answers;
          Alcotest.test_case "matches reference" `Quick test_secd_matches_reference;
          Alcotest.test_case "errors" `Quick test_secd_errors;
          Alcotest.test_case "tail recursion space" `Quick test_secd_tail_recursion_space;
          Alcotest.test_case "empty frames counted each" `Quick test_secd_empty_frames;
          Alcotest.test_case "join points" `Quick test_secd_join_points;
        ] );
      ( "denotational",
        [
          Alcotest.test_case "basics" `Quick test_denotational_basics;
          Alcotest.test_case "random draws" `Quick test_denotational_random;
          Alcotest.test_case "corpus agreement" `Slow test_denotational_matches_corpus;
          QCheck_alcotest.to_alcotest prop_three_implementations_agree;
        ] );
    ]
