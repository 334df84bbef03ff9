(* The reference machines: answers, variant-specific rules, stuck
   states, call/cc, apply, nondeterminism policies, output, fuel, and
   the collections the measured loop skips. *)

module M = Tailspace_core.Machine
module T = Tailspace_core.Types
module E = Tailspace_expander.Expand
module Res = Tailspace_resilience.Resilience
module SM = Tailspace_core.Space_model
module Tel = Tailspace_telemetry.Telemetry
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families
module Runner = Tailspace_harness.Runner

let answer ?(variant = M.Tail) ?perm ?stack_policy ?fuel src =
  let t = M.create_with (M.Config.make ~variant ?perm ?stack_policy ()) in
  let opts =
    match fuel with
    | Some fuel -> M.Run_opts.make ~fuel ()
    | None -> M.Run_opts.default
  in
  match (M.exec_string ~opts t src).M.outcome with
  | M.Done { answer; _ } -> answer
  | M.Stuck m -> "stuck: " ^ m
  | M.Aborted { reason; _ } ->
      "aborted: " ^ Tailspace_resilience.Resilience.abort_reason_message reason

let check ?variant ?perm ?stack_policy name src expected =
  Alcotest.(check string) name expected (answer ?variant ?perm ?stack_policy src)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_stuck ?variant ?stack_policy name src fragment =
  let got = answer ?variant ?stack_policy src in
  if not (contains got "stuck:" && contains got fragment) then
    Alcotest.failf "%s: expected stuck containing %S, got %S" name fragment got

let test_basics () =
  check "arith" "(+ 1 (* 2 3))" "7";
  check "nested" "(- 10 (quotient 7 2))" "7";
  check "booleans" "(if #f 'a 'b)" "b";
  check "only #f is false" "(if 0 'a 'b)" "a";
  check "empty list truthy" "(if '() 'a 'b)" "a";
  check "string answer" "\"hi\"" "\"hi\"";
  check "char answer" "#\\x" "#\\x";
  check "unspecified set!" "(define x 1) (set! x 2) x" "2"

let test_closures () =
  check "identity" "((lambda (x) x) 5)" "5";
  check "higher order" "((lambda (f) (f (f 3))) (lambda (x) (* x x)))" "81";
  check "closure captures" "(define (adder n) (lambda (x) (+ x n))) ((adder 4) 5)" "9";
  check "counter via set!"
    "(define (make) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
     (define c (make)) (c) (c) (c)"
    "3";
  check "procedures print opaquely" "(lambda (x) x)" "#<PROC>"

let test_recursion () =
  check "fact" "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 12)" "479001600";
  check "mutual"
    "(define (e? n) (if (zero? n) #t (o? (- n 1))))
     (define (o? n) (if (zero? n) #f (e? (- n 1))))
     (e? 17)"
    "#f";
  check "deep tail loop" "(define (loop n) (if (zero? n) 'ok (loop (- n 1)))) (loop 50000)" "ok"

let test_data () =
  check "list building" "(list 1 2 3)" "(1 2 3)";
  check "improper" "(cons 1 2)" "(1 . 2)";
  check "vector" "(vector 1 'a #t)" "#(1 a #t)";
  check "mutation" "(define p (cons 1 2)) (set-car! p 'x) p" "(x . 2)";
  check "vector mutation" "(define v (make-vector 2 0)) (vector-set! v 1 9) v" "#(0 9)";
  check "nested data" "(list (vector 1) (cons 'a '()))" "(#(1) (a))"

let test_cyclic_answer_is_finite () =
  (* Definition 11 allows infinite answers; rendering is fuel-bounded *)
  let a = answer "(define p (cons 1 2)) (set-cdr! p p) p" in
  Alcotest.(check bool) "bounded output" true (String.length a < 100_000);
  Alcotest.(check bool) "marked truncated" true
    (String.length a > 3 && String.sub a (String.length a - 3) 3 = "...")

let test_letrec_semantics () =
  check "letrec ok" "(letrec ((f (lambda (n) (if (zero? n) 'done (f (- n 1)))))) (f 3))" "done";
  check_stuck "premature access" "(letrec ((x (+ x 1))) x)" "before initialization";
  check "define sees later define"
    "(define (f) (g)) (define (g) 'late) (f)" "late"

let test_stuck_states () =
  check_stuck "unbound" "undefined-variable" "unbound variable";
  check_stuck "call number" "(5 1)" "non-procedure";
  check_stuck "arity over" "((lambda (x) x) 1 2)" "arity";
  check_stuck "arity under" "((lambda (x y) x) 1)" "arity";
  check_stuck "car of atom" "(car 5)" "expected pair";
  check_stuck "vector oob" "(vector-ref (vector 1) 3)" "out of range";
  check_stuck "div zero" "(quotient 1 0)" "division by zero";
  check_stuck "set! unbound" "(set! nowhere 1)" "unbound";
  check_stuck "error prim" "(error \"boom\")" "boom";
  check_stuck "apply improper" "(apply + 1)" "proper list"

let test_variadic () =
  check "rest all" "((lambda args args) 1 2 3)" "(1 2 3)";
  check "rest empty" "((lambda (a . r) r) 1)" "()";
  check "rest some" "((lambda (a . r) (cons a r)) 1 2 3)" "(1 2 3)";
  check_stuck "rest under" "((lambda (a b . r) r) 1)" "arity"

let test_apply () =
  check "apply basic" "(apply + '(1 2 3))" "6";
  check "apply spread" "(apply + 1 2 '(3 4))" "10";
  check "apply closure" "(apply (lambda (a b) (- a b)) '(10 4))" "6";
  check "apply apply" "(apply apply (list + '(1 2)))" "3"

let test_call_cc () =
  check "no escape" "(call/cc (lambda (k) 42))" "42";
  check "escape" "(+ 1 (call/cc (lambda (k) (k 10) 999)))" "11";
  check "escape skips work" "(call/cc (lambda (k) (+ 1 (k 'jumped))))" "jumped";
  check "long name" "(call-with-current-continuation (lambda (k) (k 1)))" "1";
  check "stored continuation"
    "(define saved #f)
     (define result (+ 1 (call/cc (lambda (k) (set! saved k) 1))))
     (if saved
         (let ((k saved))
           (set! saved #f)
           (k 41))
         result)"
    "42";
  check_stuck "continuation arity" "(call/cc (lambda (k) (k 1 2)))" "1 value"

let test_output () =
  let t = M.create_with M.Config.default in
  let r =
    M.exec_string t "(display 'hello) (newline) (display (list 1 2)) 'done"
  in
  (match r.M.outcome with
  | M.Done { answer; _ } -> Alcotest.(check string) "answer" "done" answer
  | _ -> Alcotest.fail "expected Done");
  Alcotest.(check string) "output" "hello\n(1 2)" r.M.output

let test_display_vs_write () =
  let t = M.create_with M.Config.default in
  let r = M.exec_string t "(display \"a\\nb\") (write \"a\\nb\") 0" in
  Alcotest.(check string) "display raw, write escaped" "a\nb\"a\\nb\"" r.M.output

let test_fuel () =
  let t = M.create_with M.Config.default in
  let r =
    M.exec_string
      ~opts:(M.Run_opts.make ~fuel:100 ())
      t "(define (spin) (spin)) (spin)"
  in
  (match r.M.outcome with
  | M.Aborted { reason = Res.Out_of_fuel { limit }; steps; _ } ->
      Alcotest.(check int) "abort carries the limit" 100 limit;
      Alcotest.(check int) "stopped at the limit" 100 steps
  | _ -> Alcotest.fail "expected Aborted (Out_of_fuel)");
  Alcotest.(check int) "result steps" 100 r.M.steps

(* The [`Approximate] policy only collects once tracked space overshoots
   the running peak by 12.5% plus 64 words, so its reported peak may
   undershoot the [`Exact] sup by at most that much — and never
   overshoots it (collections cannot raise live space). *)
let test_approximate_gc_bound () =
  let src =
    "(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (build 200)"
  in
  let peak policy =
    let t = M.create_with M.Config.default in
    let r =
      M.exec_string ~opts:(M.Run_opts.make ~gc_policy:policy ()) t src
    in
    match r.M.outcome with
    | M.Done _ -> M.peak_space r
    | _ -> Alcotest.fail "build run failed"
  in
  let exact = peak `Exact and approx = peak `Approximate in
  Alcotest.(check bool)
    (Printf.sprintf "approx %d never above exact %d" approx exact)
    true (approx <= exact);
  Alcotest.(check bool)
    (Printf.sprintf "approx %d within 12.5%%+64 of exact %d" approx exact)
    true
    (approx >= exact - (exact / 8) - 64)

let test_perm_policies () =
  (* order-insensitive program: same answer under every policy *)
  let src = "(define (f a b c) (- a (quotient b c))) (f 10 9 3)" in
  check "ltr" src "7";
  check ~perm:M.Right_to_left "rtl" src "7";
  check ~perm:(M.Seeded 7) "seeded" src "7";
  (* order-sensitive program exposes the chosen permutation *)
  let effects =
    "(define order '())
     (define (note! x) (set! order (cons x order)) x)
     (+ (note! 1) (note! 2))
     (reverse order)"
  in
  check "ltr order" effects "(1 2)";
  check ~perm:M.Right_to_left "rtl order" effects "(2 1)"

let test_stack_policies () =
  (* A closure over a stack-allocated variable escapes: Algol deletion
     would dangle (stuck); Safe_deletion keeps the binding. *)
  let escaping = "(define (make n) (lambda () n)) ((make 5))" in
  check ~variant:M.Stack ~stack_policy:M.Safe_deletion "safe deletion" escaping "5";
  check_stuck ~variant:M.Stack ~stack_policy:M.Algol "algol dangles" escaping
    "dangling";
  (* Algol-like code works under the Algol policy when no closure
     outlives its frame. Note that even (define (g x) ...) makes the
     resulting closure capture its own letrec binding, so the Algol
     policy rejects programs whose *value* is a defined procedure —
     the deletion strategy really is that restrictive (§5). *)
  check ~variant:M.Stack ~stack_policy:M.Algol "algol ok on non-escaping"
    "((lambda (x) (* 2 x)) 3)" "6";
  check_stuck ~variant:M.Stack ~stack_policy:M.Algol
    "algol rejects escaping define" "(define (g x) (* 2 x)) g" "dangling"

let test_variant_answers_each () =
  List.iter
    (fun v ->
      check ~variant:v
        (M.variant_name v ^ " computes fact")
        "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 6)" "720")
    M.all_variants

let test_eval_and_define_global () =
  let t = M.create_with M.Config.default in
  (match M.define_global t "double" (E.expression_of_string "(lambda (x) (* 2 x))") with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match M.eval_global t (E.expression_of_string "(double 21)") with
  | Ok (T.Int z, _) ->
      Alcotest.(check string) "global usable" "42" (Tailspace_bignum.Bignum.to_string z)
  | Ok _ -> Alcotest.fail "expected number"
  | Error m -> Alcotest.fail m);
  (* recursive global *)
  (match
     M.define_global t "count"
       (E.expression_of_string "(lambda (n) (if (zero? n) 'zero (count (- n 1))))")
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match M.eval_global t (E.expression_of_string "(count 5)") with
  | Ok (T.Sym s, _) -> Alcotest.(check string) "recursion" "zero" s
  | _ -> Alcotest.fail "expected symbol"

let test_run_program_convention () =
  let t = M.create_with M.Config.default in
  let program = E.program_of_string "(define (f n) (* n n)) f" in
  let input = Tailspace_ast.Ast.(Quote (C_int (Tailspace_bignum.Bignum.of_int 9))) in
  match (M.exec_program t ~program ~input).M.outcome with
  | M.Done { answer; _ } -> Alcotest.(check string) "squares" "81" answer
  | _ -> Alcotest.fail "expected Done"

let test_promises () =
  check "delay is lazy"
    "(define p (delay (error \"should not run\"))) 0" "0";
  check "force computes" "(force (delay (* 6 7)))" "42";
  check "force memoizes"
    "(define count 0)
     (define p (delay (begin (set! count (+ count 1)) count)))
     (force p) (force p) (force p)"
    "1";
  check "promises are values"
    "(define p (delay 10)) (list (force p) (force p))" "(10 10)"

(* The telemetry hooks a profiler attaches: a [Step] event for every
   step carrying the configuration's flat space, and a one-line
   description of every configuration. *)
let test_hooks () =
  let steps_seen = ref 0 in
  let max_space = ref 0 in
  let traced = ref [] in
  let tl =
    Tel.create
      ~sink:(function
        | Tel.Step { space; _ } ->
            incr steps_seen;
            max_space := Stdlib.max !max_space space
        | _ -> ())
      ~config_sink:(fun _ line -> traced := line :: !traced)
      ()
  in
  let r =
    M.exec_string
      ~opts:(M.Run_opts.make ~telemetry:tl ())
      (M.create_with M.Config.default)
      "(+ 1 2)"
  in
  Alcotest.(check bool) "hook per step" true (!steps_seen >= r.M.steps);
  Alcotest.(check bool)
    "profile sees the peak" true
    (!max_space >= M.peak_space r);
  Alcotest.(check bool)
    "trace nonempty" true
    (List.length !traced >= r.M.steps);
  Alcotest.(check bool) "trace mentions control" true
    (List.exists
       (fun l -> String.length l > 2 && (l.[0] = 'E' || l.[0] = 'V'))
       !traced)

let test_random_deterministic () =
  let one () = answer "(list (random 10) (random 10) (random 10))" in
  Alcotest.(check string) "same seed, same stream" (one ()) (one ())

let test_prelude_procedures () =
  check "length" "(length '(a b c))" "3";
  check "append" "(append '(1 2) '(3) '(4 5))" "(1 2 3 4 5)";
  check "reverse" "(reverse '(1 2 3))" "(3 2 1)";
  check "map" "(map (lambda (x) (* x x)) '(1 2 3))" "(1 4 9)";
  check "filter" "(filter odd? '(1 2 3 4 5))" "(1 3 5)";
  check "fold-left" "(fold-left - 0 '(1 2 3))" "-6";
  check "fold-right" "(fold-right cons '() '(1 2))" "(1 2)";
  check "assq" "(assq 'b '((a 1) (b 2)))" "(b 2)";
  check "member" "(member '(1) '((0) (1) (2)))" "((1) (2))";
  check "memv" "(memv 2 '(1 2 3))" "(2 3)";
  check "list-tail" "(list-tail '(a b c d) 2)" "(c d)";
  check "list->vector" "(list->vector '(1 2))" "#(1 2)";
  check "vector->list" "(vector->list (vector 'a 'b))" "(a b)";
  check "gcd" "(gcd 12 18 30)" "6";
  check "list?" "(list? '(1 2))" "#t";
  check "list? improper" "(list? (cons 1 2))" "#f";
  check "for-each"
    "(define acc 0) (for-each (lambda (x) (set! acc (+ acc x))) '(1 2 3)) acc" "6"

let test_equivalence_predicates () =
  check "eqv? numbers" "(eqv? 100000000000000000000 100000000000000000000)" "#t";
  check "eqv? symbols" "(eqv? 'a 'a)" "#t";
  check "eqv? distinct pairs" "(eqv? (cons 1 2) (cons 1 2))" "#f";
  check "eqv? same pair" "(let ((p (cons 1 2))) (eqv? p p))" "#t";
  check "equal? deep" "(equal? (list 1 (vector 2 3)) (list 1 (vector 2 3)))" "#t";
  check "equal? differs" "(equal? '(1 2) '(1 3))" "#f";
  check "eq? procedures" "(let ((f (lambda (x) x))) (eq? f f))" "#t";
  check "eq? distinct closures" "(eq? (lambda (x) x) (lambda (x) x))" "#f"

(* --- Skipped collections ---------------------------------------------

   The measured loop skips a scheduled collection when the transition
   rules prove the configuration garbage-free. A [gc_every:1] plan
   collects before every step, so its run never depends on that proof:
   each run below is compared with one under that plan. Answers, steps
   and every model's peak must agree, and so must the flat space at every
   step that raises the running maximum — a figure inflated by garbage
   that a wrongly skipped collection left behind shows there first. *)

let collect_every_step = Res.Fault.make ~label:"gc-every-1" ~gc_every:1 ()

let run_rising ?fault ~variant ~measure expr =
  let rising = ref [] and top = ref (-1) in
  let sink = function
    | Tel.Step { step; space; _ } when space > !top ->
        top := space;
        rising := (step, space) :: !rising
    | _ -> ()
  in
  let opts =
    M.Run_opts.make ~fuel:2_000_000 ?fault ~measure
      ~telemetry:(Tel.create ~sink ()) ()
  in
  let r = M.exec ~opts (M.create_with (M.Config.make ~variant ())) expr in
  (r, List.rev !rising)

let outcome_text (r : M.result) =
  match r.M.outcome with
  | M.Done { answer; _ } -> "done:" ^ answer
  | M.Stuck m -> "stuck:" ^ m
  | M.Aborted { reason; _ } -> "aborted:" ^ Res.abort_reason_message reason

let check_schedule_free name expr =
  List.iter
    (fun variant ->
      List.iter
        (fun measure ->
          let what =
            Printf.sprintf "%s %s %s" name (M.variant_name variant)
              (String.concat "+" (List.map SM.name measure))
          in
          let r, rising = run_rising ~variant ~measure expr in
          let forced, forced_rising =
            run_rising ~fault:collect_every_step ~variant ~measure expr
          in
          Alcotest.(check string)
            (what ^ " answer") (outcome_text forced) (outcome_text r);
          Alcotest.(check int) (what ^ " steps") forced.M.steps r.M.steps;
          List.iter
            (fun m ->
              Alcotest.(check (option int))
                (what ^ " " ^ SM.name m ^ " peak")
                (M.peak_of forced m) (M.peak_of r m))
            measure;
          Alcotest.(check (list (pair int int)))
            (what ^ " spaces at rising steps") forced_rising rising)
        [ [ SM.Flat ]; SM.all ])
    M.all_variants

(* [depth] nested primitive calls: every step that evaluates it leaves
   no garbage, and the continuation it builds outgrows whatever came
   before it on every variant — so garbage dropped just before it is
   still in the store at the new peak unless a collection ran. *)
let grow depth =
  String.concat "" (List.init depth (fun _ -> "(+ 1 "))
  ^ "0" ^ String.make depth ')'

(* Each program drops cells just before [grow], in one of the ways a
   condition of the rule table in DESIGN.md ("GC scheduling") guards
   against. *)
let drop_then_grow =
  let g = grow 40 in
  [
    ("lambda as if test", Printf.sprintf "(if (lambda () 0) %s 0)" g);
    ("fresh pair as if test", Printf.sprintf "(if (cons 1 2) %s 0)" g);
    ( "if test leaves the callee's register",
      Printf.sprintf "(define (f x) #t) (if (f (cons 1 2)) %s 0)" g );
    ( "argument leaves the callee's register",
      Printf.sprintf "(define (f x) 0) (list (f (cons 1 2)) %s)" g );
    ("variadic call", Printf.sprintf "(list ((lambda args 0) 1 2 3) %s)" g);
    ("nullary closure call", Printf.sprintf "(list ((lambda () 0)) %s)" g);
    ( "set-car! cuts the only path to a cell",
      Printf.sprintf "(let ((p (cons (cons 1 2) 3))) (list (set-car! p 0) %s))"
        g );
    ( "set! drops a pair",
      Printf.sprintf "(let ((p (cons 1 2))) (list (set! p 0) %s))" g );
    ( "primitive reads a fresh pair",
      Printf.sprintf "(list (car (cons 1 2)) %s)" g );
    ( "call/cc escape",
      Printf.sprintf "(list (call/cc (lambda (k) (k 1))) %s)" g );
    ( "call/cc with a primitive receiver",
      Printf.sprintf "(list (call/cc procedure?) %s)" g );
  ]

let test_skips_drop_then_grow () =
  List.iter
    (fun (name, src) -> check_schedule_free name (E.program_of_string src))
    drop_then_grow

(* §12's convention: apply the program to [(quote n)]. *)
let applied program n = Tailspace_ast.Ast.Call (program, [ Runner.input_expr n ])

let test_skips_separators () =
  List.iter
    (fun (name, src) ->
      check_schedule_free name (applied (E.program_of_string src) 6))
    Families.separators

let test_skips_corpus () =
  List.iter
    (fun (e : Corpus.entry) ->
      if not e.Corpus.slow then
        check_schedule_free e.Corpus.name (applied (Corpus.program e) 1))
    Corpus.all

let () =
  Alcotest.run "machine"
    [
      ( "evaluation",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "data" `Quick test_data;
          Alcotest.test_case "cyclic answers finite" `Quick test_cyclic_answer_is_finite;
          Alcotest.test_case "letrec" `Quick test_letrec_semantics;
          Alcotest.test_case "variadic" `Quick test_variadic;
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "call/cc" `Quick test_call_cc;
          Alcotest.test_case "prelude" `Quick test_prelude_procedures;
          Alcotest.test_case "eqv/equal" `Quick test_equivalence_predicates;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "stuck states" `Quick test_stuck_states;
          Alcotest.test_case "output" `Quick test_output;
          Alcotest.test_case "display vs write" `Quick test_display_vs_write;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "approximate gc bound" `Quick
            test_approximate_gc_bound;
          Alcotest.test_case "perm policies" `Quick test_perm_policies;
          Alcotest.test_case "stack policies" `Quick test_stack_policies;
          Alcotest.test_case "all variants run" `Quick test_variant_answers_each;
          Alcotest.test_case "globals" `Quick test_eval_and_define_global;
          Alcotest.test_case "run_program" `Quick test_run_program_convention;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "promises" `Quick test_promises;
          Alcotest.test_case "profiling hooks" `Quick test_hooks;
        ] );
      ( "skipped collections",
        [
          Alcotest.test_case "drop then grow" `Quick test_skips_drop_then_grow;
          Alcotest.test_case "separators" `Quick test_skips_separators;
          Alcotest.test_case "corpus" `Slow test_skips_corpus;
        ] );
    ]
