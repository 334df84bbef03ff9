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
module B = Tailspace_bignum.Bignum

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
  (* all four sign combinations: remainder takes the dividend's sign,
     modulo the divisor's *)
  check "quotient signs"
    "(list (quotient 7 2) (quotient -7 2) (quotient 7 -2) (quotient -7 -2))"
    "(3 -3 -3 3)";
  check "remainder signs"
    "(list (remainder 7 2) (remainder -7 2) (remainder 7 -2) (remainder -7 -2))"
    "(1 -1 1 -1)";
  check "modulo signs"
    "(list (modulo 7 2) (modulo -7 2) (modulo 7 -2) (modulo -7 -2))"
    "(1 1 -1 -1)";
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
  check "nested data" "(list (vector 1) (cons 'a '()))" "(#(1) (a))";
  (* three distinct strings, one empty: joined in order *)
  check "string-append order" "(string-append \"ab\" \"\" \"cd\")" "\"abcd\""

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

(* An I_sfs machine keeps its annotation table, with every
   free-variable set it computed, for its own lifetime only: making and
   dropping machines leaves the live heap where it was. *)
let test_creations_leave_no_heap () =
  let create n =
    for _ = 1 to n do
      ignore
        (Sys.opaque_identity
           (M.create_with (M.Config.make ~variant:M.Sfs ())))
    done;
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let after_50 = create 50 in
  let after_300 = create 250 in
  if float_of_int after_300 > 1.05 *. float_of_int after_50 then
    Alcotest.failf "live words %d after 50 creations, %d after 300" after_50
      after_300

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

(* Answer, steps, every peak and reclaiming collections of a run, in one
   line, for comparing against recorded figures. *)
let figures r =
  let answer =
    match r.M.outcome with
    | M.Done { answer; _ } -> answer
    | M.Stuck m -> "stuck: " ^ m
    | M.Aborted _ -> "aborted"
  in
  Printf.sprintf "%s steps=%d %s gc_runs=%d" answer r.M.steps
    (String.concat " "
       (List.map (fun (m, p) -> Printf.sprintf "%s=%d" (SM.name m) p) r.M.peaks))
    r.M.gc_runs

let flat = [ SM.Flat ]
let heavy = SM.[ Flat; Linked; Log ]
let models_name measure = String.concat "," (List.map SM.name measure)

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
  (match M.eval_global t (E.expression_of_string "(count 5)") with
  | Ok (T.Sym s, _) -> Alcotest.(check string) "recursion" "zero" s
  | _ -> Alcotest.fail "expected symbol");
  (* Globals defined after the machine was built sit in the initial
     environment's overlay, outside its base, and [xs]'s definition
     leaves garbage in the initial store: a run that makes garbage must
     still free it, with the figures of a machine whose every collection
     is full. *)
  List.iter
    (fun (variant, measure, expected) ->
      let t = M.create_with (M.Config.make ~variant ()) in
      List.iter
        (fun (name, src) ->
          match M.define_global t name (E.expression_of_string src) with
          | Ok () -> ()
          | Error m -> Alcotest.fail m)
        [
          ("double", "(lambda (x) (* 2 x))");
          ("count", "(lambda (n) (if (zero? n) 'zero (count (- n 1))))");
          ("xs", "(cdr (list 1 2 3))");
        ];
      let r =
        M.exec_string ~opts:(M.Run_opts.make ~measure ()) t
          "(define (churn n acc)
             (if (zero? n)
                 (list (count 3) (length acc) (car xs))
                 (churn (- n 1) (cons (double n) '()))))
           (churn 60 '())"
      in
      Alcotest.(check string)
        (M.variant_name variant ^ " " ^ models_name measure)
        expected (figures r))
    [
      (M.Tail, flat, "(zero 1 2) steps=2767 flat=3680 gc_runs=64");
      (M.Tail, heavy, "(zero 1 2) steps=2767 flat=3680 linked=442 log=3536 gc_runs=134");
      (M.Gc, flat, "(zero 1 2) steps=2899 flat=10520 gc_runs=68");
      (M.Gc, heavy, "(zero 1 2) steps=2899 flat=10520 linked=503 log=4024 gc_runs=138");
      (M.Stack, flat, "(zero 1 2) steps=2899 flat=11791 gc_runs=4");
      (M.Stack, heavy, "(zero 1 2) steps=2899 flat=11791 linked=1767 log=15903 gc_runs=68");
      (M.Evlis, flat, "(zero 1 2) steps=2767 flat=3575 gc_runs=66");
      (M.Evlis, heavy, "(zero 1 2) steps=2767 flat=3575 linked=442 log=3536 gc_runs=135");
      (M.Free, flat, "(zero 1 2) steps=2767 flat=618 gc_runs=6");
      (M.Free, heavy, "(zero 1 2) steps=2767 flat=618 linked=392 log=3136 gc_runs=134");
      (M.Sfs, flat, "(zero 1 2) steps=2767 flat=516 gc_runs=7");
      (M.Sfs, heavy, "(zero 1 2) steps=2767 flat=516 linked=392 log=3136 gc_runs=204");
    ]

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

(* [random] restarts from [Config.seed] at every run, so a machine's
   second run answers what a fresh machine does. *)
let test_random_per_run () =
  let src = "(list (random 1000) (random 1000))" in
  let fresh = answer src in
  let t = M.create_with M.Config.default in
  let run () =
    match (M.exec_string t src).M.outcome with
    | M.Done { answer; _ } -> answer
    | _ -> Alcotest.fail "expected Done"
  in
  Alcotest.(check string) "first run = a fresh machine" fresh (run ());
  Alcotest.(check string) "second run = a fresh machine" fresh (run ());
  (* an evaluation outside a measured run restarts the stream too *)
  let draw () =
    match M.eval_global t (E.expression_of_string "(random 1000000)") with
    | Ok (T.Int z, _) -> Tailspace_bignum.Bignum.to_string z
    | Ok _ | Error _ -> Alcotest.fail "expected a number"
  in
  let first = draw () in
  Alcotest.(check string) "two evaluations draw alike" first (draw ());
  Alcotest.(check string) "a run after them = a fresh machine" fresh (run ())

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
   rules prove the configuration garbage-free. [collect_every_step],
   Definition 21's literal schedule, collects before every step, so its
   run never depends on that proof: each run below is compared with one
   under it. Answers, steps and every model's peak must agree, and so
   must the flat space at every step that raises the running maximum — a
   figure inflated by garbage that a wrongly skipped collection left
   behind shows there first. *)

let run_rising ?collect_every_step ~variant ~measure expr =
  let rising = ref [] and top = ref (-1) in
  let sink = function
    | Tel.Step { step; space; _ } when space > !top ->
        top := space;
        rising := (step, space) :: !rising
    | _ -> ()
  in
  let opts =
    M.Run_opts.make ~fuel:2_000_000 ?collect_every_step ~measure
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
            run_rising ~collect_every_step:true ~variant ~measure expr
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
      List.iter
        (fun n ->
          check_schedule_free
            (Printf.sprintf "%s n=%d" name n)
            (applied (E.program_of_string src) n))
        [ 6; 12 ])
    Families.separators

let test_skips_corpus () =
  List.iter
    (fun (e : Corpus.entry) ->
      if not e.Corpus.slow then
        check_schedule_free e.Corpus.name (applied (Corpus.program e) 1))
    Corpus.all

(* --- the fixnum fast path ---------------------------------------------

   Figure 7 charges an integer by its magnitude (1 + log2 z words),
   never by its representation, so turning [Bignum]'s fixnums off, which
   puts every integer in limbs, must change no answer, step count or
   flat peak. fact at its last check crosses the fixnum/limb boundary
   both ways. *)

let fixnum_inputs () =
  let corpus pick name =
    match Corpus.find name with
    | Some ({ Corpus.checks = _ :: _ as checks; _ } as e) ->
        (name, Corpus.program e, fst (pick checks))
    | _ -> Alcotest.failf "corpus entry %s has no checks" name
  in
  List.map
    (fun (name, src) -> (name, E.program_of_string src, 12))
    Families.separators
  @ List.map (corpus List.hd) [ "countdown"; "fib-iter"; "even-odd" ]
  @ [ corpus (fun checks -> List.hd (List.rev checks)) "fact" ]

let test_fixnums_invisible () =
  List.iter
    (fun (name, program, n) ->
      List.iter
        (fun variant ->
          let run fixnums =
            B.set_fixnums fixnums;
            Fun.protect
              ~finally:(fun () -> B.set_fixnums true)
              (fun () ->
                Runner.run_once
                  ~opts:(M.Run_opts.make ~fuel:2_000_000 ())
                  ~config:(M.Config.make ~variant ())
                  ~program ~n ())
          in
          let on = run true in
          let off = run false in
          let what = Printf.sprintf "%s n=%d %s" name n (M.variant_name variant) in
          Alcotest.(check string)
            (what ^ " answer") (Runner.status_text on) (Runner.status_text off);
          Alcotest.(check int) (what ^ " steps") on.Runner.steps off.Runner.steps;
          Alcotest.(check int)
            (what ^ " flat peak") (Runner.peak_space on) (Runner.peak_space off))
        M.all_variants)
    (fixnum_inputs ())

(* --- writes to the initial world --- *)

let example file =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../examples" file; Filename.concat "examples" file ]
  in
  In_channel.with_open_text path In_channel.input_all

(* Each example program at N = 40, on each (variant, models) row. *)
let check_examples =
  List.iter (fun (file, rows) ->
      let program = E.program_of_string (example file) in
      List.iter
        (fun (variant, measure, expected) ->
          let t = M.create_with (M.Config.make ~variant ()) in
          let r =
            M.exec_program ~opts:(M.Run_opts.make ~measure ()) t ~program
              ~input:(Runner.input_expr 40)
          in
          Alcotest.(check string)
            (String.concat " " [ file; M.variant_name variant; models_name measure ])
            expected (figures r))
        rows)

(* A set! of a prelude global writes a cell built before the run, which
   can then point at cells the run allocated: the collector must stop
   treating the initial world as closed. The figures are those of a
   machine whose every collection is full, at N = 40. *)
let test_set_prelude_global () =
  check_examples
    [
      ( "redefine-length.scm",
        [
          (M.Tail, flat, "40 steps=6052 flat=8333 gc_runs=6");
          (M.Tail, heavy, "40 steps=6052 flat=8333 linked=884 log=7072 gc_runs=216");
          (M.Gc, flat, "40 steps=6266 flat=21279 gc_runs=91");
          (M.Gc, heavy, "40 steps=6266 flat=21279 linked=1028 log=8224 gc_runs=219");
          (M.Stack, flat, "40 steps=6266 flat=24938 gc_runs=7");
          (M.Stack, heavy, "40 steps=6266 flat=24938 linked=4677 log=46770 gc_runs=171");
          (M.Evlis, flat, "40 steps=6052 flat=4077 gc_runs=207");
          (M.Evlis, heavy, "40 steps=6052 flat=4077 linked=879 log=7032 gc_runs=217");
          (M.Free, flat, "40 steps=6052 flat=685 gc_runs=25");
          (M.Free, heavy, "40 steps=6052 flat=685 linked=514 log=3598 gc_runs=217");
          (M.Sfs, flat, "40 steps=6052 flat=496 gc_runs=164");
          (M.Sfs, heavy, "40 steps=6052 flat=496 linked=492 log=3444 gc_runs=390");
        ] );
      ( "redefine-reverse.scm",
        [
          (M.Tail, flat, "(1) steps=1579 flat=3884 gc_runs=43");
          (M.Tail, heavy, "(1) steps=1579 flat=3884 linked=814 log=6512 gc_runs=127");
          (M.Gc, flat, "(1) steps=1665 flat=12642 gc_runs=86");
          (M.Gc, heavy, "(1) steps=1665 flat=12642 linked=1389 log=12501 gc_runs=167");
          (M.Stack, flat, "(1) steps=1665 flat=12736 gc_runs=44");
          (M.Stack, heavy, "(1) steps=1665 flat=12736 linked=1483 log=13347 gc_runs=85");
          (M.Evlis, flat, "(1) steps=1579 flat=3782 gc_runs=85");
          (M.Evlis, heavy, "(1) steps=1579 flat=3782 linked=814 log=6512 gc_runs=127");
          (M.Free, flat, "(1) steps=1579 flat=680 gc_runs=4");
          (M.Free, heavy, "(1) steps=1579 flat=680 linked=462 log=3234 gc_runs=128");
          (M.Sfs, flat, "(1) steps=1579 flat=482 gc_runs=9");
          (M.Sfs, heavy, "(1) steps=1579 flat=482 linked=460 log=3220 gc_runs=173");
        ] );
    ]

(* Writes to cells a collection recorded deep in the continuation, and
   escapes back to recorded frames, under collections that re-trace
   only what changed since the last: the figures are those of a machine
   whose every collection traces the whole continuation, at N = 40. *)
let test_history_examples () =
  check_examples
    [
      ( "mutate-deep.scm",
        [
          (M.Tail, flat, "45 steps=3175 flat=8378 gc_runs=43");
          (M.Tail, heavy, "45 steps=3175 flat=8378 linked=1192 log=10728 gc_runs=127");
          (M.Gc, flat, "45 steps=3274 flat=17236 gc_runs=50");
          (M.Gc, heavy, "45 steps=3274 flat=17236 linked=1280 log=11520 gc_runs=173");
          (M.Stack, flat, "45 steps=3274 flat=17257 gc_runs=47");
          (M.Stack, heavy, "45 steps=3274 flat=17257 linked=1297 log=11673 gc_runs=79");
          (M.Evlis, flat, "45 steps=3175 flat=3622 gc_runs=65");
          (M.Evlis, heavy, "45 steps=3175 flat=3622 linked=594 log=4752 gc_runs=128");
          (M.Free, flat, "45 steps=3175 flat=1046 gc_runs=24");
          (M.Free, heavy, "45 steps=3175 flat=1046 linked=861 log=6888 gc_runs=128");
          (M.Sfs, flat, "45 steps=3175 flat=488 gc_runs=6");
          (M.Sfs, heavy, "45 steps=3175 flat=488 linked=366 log=2928 gc_runs=226");
        ] );
      ( "escape-middle.scm",
        [
          (M.Tail, flat, "5 steps=3573 flat=20771 gc_runs=11");
          (M.Tail, heavy, "5 steps=3573 flat=20771 linked=1217 log=9736 gc_runs=41");
          (M.Gc, flat, "5 steps=3598 flat=47167 gc_runs=12");
          (M.Gc, heavy, "5 steps=3598 flat=47167 linked=1469 log=11752 gc_runs=49");
          (M.Stack, flat, "5 steps=3598 flat=48869 gc_runs=10");
          (M.Stack, heavy, "5 steps=3598 flat=48869 linked=1498 log=11984 gc_runs=24");
          (M.Evlis, flat, "5 steps=3573 flat=3558 gc_runs=99");
          (M.Evlis, heavy, "5 steps=3573 flat=3558 linked=519 log=4152 gc_runs=146");
          (M.Free, flat, "5 steps=3573 flat=1784 gc_runs=6");
          (M.Free, heavy, "5 steps=3573 flat=1784 linked=878 log=6146 gc_runs=42");
          (M.Sfs, flat, "5 steps=3573 flat=484 gc_runs=9");
          (M.Sfs, heavy, "5 steps=3573 flat=484 linked=367 log=2936 gc_runs=379");
        ] );
    ]

(* A [Seeded s] order is drawn from [s] alone: from a generator
   restarted at every run and separate from [random]'s. *)
let test_seeded_orders () =
  let src = example "argument-order.scm" in
  let order seed = answer ~perm:(M.Seeded seed) src in
  Alcotest.(check bool) "seeds 1 and 99 differ" true (order 1 <> order 99);
  Alcotest.(check bool) "seeds 7 and 99 differ" true (order 7 <> order 99);
  Alcotest.(check string) "fresh machines agree" (order 7) (order 7);
  (* the order of the default [Config.seed]'s stream, which every seed
     drew from while the order shared [random]'s generator: figures
     recorded then under any seed hold under [Seeded 24054] *)
  Alcotest.(check string) "seed 24054" "(1 5 3 4 2 6 10 8 7 9)" (order 24054);
  let t = M.create_with (M.Config.make ~perm:(M.Seeded 7) ()) in
  let run () =
    match (M.exec_string t src).M.outcome with
    | M.Done { answer; _ } -> answer
    | _ -> Alcotest.fail "expected Done"
  in
  let first = run () in
  Alcotest.(check string) "two runs of one machine" first (run ());
  Alcotest.(check string) "one machine = a fresh one" (order 7) first

(* --- figures under every argument order --- *)

let rtl = M.Right_to_left
let seeded = M.Seeded 24054

let perm_name = function
  | M.Left_to_right -> "ltr"
  | M.Right_to_left -> "rtl"
  | M.Seeded s -> Printf.sprintf "seeded %d" s

(* Right to left and seeded orders rebuild each call's operands from a
   permuted frame: answer, steps, all three peaks and reclaiming
   collections, recorded when every call sorted its operands by
   position. [append] reaches [apply] through the prelude and
   callcc-generator reaches [call/cc]. *)
let test_order_figures () =
  let corpus name n =
    (name, applied (Corpus.program (Option.get (Corpus.find name))) n)
  in
  let programs =
    List.map
      (fun (name, src) -> (name, applied (E.program_of_string src) 8))
      Families.separators
    @ [
        corpus "fib-iter" 10;
        corpus "mergesort" 12;
        corpus "callcc-generator" 6;
        ("append", E.program_of_string "(append '(1) '(2) '(3))");
      ]
  in
  List.iter
    (fun (perm, name, variant, expected) ->
      let t = M.create_with (M.Config.make ~variant ~perm ()) in
      let r =
        M.exec ~opts:(M.Run_opts.make ~measure:heavy ()) t
          (List.assoc name programs)
      in
      Alcotest.(check string)
        (String.concat " " [ perm_name perm; name; M.variant_name variant ])
        expected (figures r))
    [
      (rtl, "stack/gc", M.Tail, "0 steps=297 flat=3304 linked=407 log=3256 gc_runs=21");
      (rtl, "stack/gc", M.Gc, "0 steps=317 flat=5076 linked=437 log=3496 gc_runs=31");
      (rtl, "stack/gc", M.Stack, "0 steps=317 flat=5200 linked=560 log=4480 gc_runs=20");
      (rtl, "stack/gc", M.Evlis, "0 steps=297 flat=3246 linked=407 log=3256 gc_runs=21");
      (rtl, "stack/gc", M.Free, "0 steps=297 flat=677 linked=370 log=2960 gc_runs=22");
      (rtl, "stack/gc", M.Sfs, "0 steps=297 flat=479 linked=365 log=2920 gc_runs=31");
      (rtl, "gc/tail", M.Tail, "0 steps=198 flat=3304 linked=380 log=3040 gc_runs=12");
      (rtl, "gc/tail", M.Gc, "0 steps=209 flat=4116 linked=383 log=3064 gc_runs=13");
      (rtl, "gc/tail", M.Stack, "0 steps=209 flat=4153 linked=416 log=3328 gc_runs=3");
      (rtl, "gc/tail", M.Evlis, "0 steps=198 flat=3217 linked=380 log=3040 gc_runs=12");
      (rtl, "gc/tail", M.Free, "0 steps=198 flat=676 linked=370 log=2960 gc_runs=13");
      (rtl, "gc/tail", M.Sfs, "0 steps=198 flat=478 linked=365 log=2920 gc_runs=13");
      (rtl, "tail/evlis", M.Tail, "8 steps=535 flat=6023 linked=646 log=5168 gc_runs=55");
      (rtl, "tail/evlis", M.Gc, "8 steps=597 flat=10537 linked=690 log=5520 gc_runs=83");
      (rtl, "tail/evlis", M.Stack, "8 steps=597 flat=10537 linked=690 log=5520 gc_runs=63");
      (rtl, "tail/evlis", M.Evlis, "8 steps=535 flat=5051 linked=490 log=3920 gc_runs=63");
      (rtl, "tail/evlis", M.Free, "8 steps=535 flat=677 linked=370 log=2960 gc_runs=64");
      (rtl, "tail/evlis", M.Sfs, "8 steps=535 flat=479 linked=365 log=2920 gc_runs=98");
      (rtl, "evlis/sfs", M.Tail, "8 steps=377 flat=4205 linked=566 log=4528 gc_runs=37");
      (rtl, "evlis/sfs", M.Gc, "8 steps=413 flat=6856 linked=592 log=4736 gc_runs=55");
      (rtl, "evlis/sfs", M.Stack, "8 steps=413 flat=6856 linked=592 log=4736 gc_runs=36");
      (rtl, "evlis/sfs", M.Evlis, "8 steps=377 flat=4205 linked=566 log=4528 gc_runs=37");
      (rtl, "evlis/sfs", M.Free, "8 steps=377 flat=677 linked=370 log=2960 gc_runs=38");
      (rtl, "evlis/sfs", M.Sfs, "8 steps=377 flat=479 linked=365 log=2920 gc_runs=47");
      (rtl, "fib-iter", M.Tail, "55 steps=396 flat=3361 linked=414 log=3312 gc_runs=17");
      (rtl, "fib-iter", M.Gc, "55 steps=412 flat=4796 linked=427 log=3416 gc_runs=20");
      (rtl, "fib-iter", M.Stack, "55 steps=412 flat=4945 linked=573 log=4584 gc_runs=6");
      (rtl, "fib-iter", M.Evlis, "55 steps=396 flat=3361 linked=414 log=3312 gc_runs=17");
      (rtl, "fib-iter", M.Free, "55 steps=396 flat=676 linked=370 log=2960 gc_runs=18");
      (rtl, "fib-iter", M.Sfs, "55 steps=396 flat=478 linked=365 log=2920 gc_runs=39");
      (rtl, "mergesort", M.Tail, "0 steps=7201 flat=5588 linked=1165 log=9320 gc_runs=335");
      (rtl, "mergesort", M.Gc, "0 steps=7481 flat=8437 linked=1177 log=9416 gc_runs=380");
      (rtl, "mergesort", M.Stack, "0 steps=7481 flat=8437 linked=1189 log=9512 gc_runs=142");
      (rtl, "mergesort", M.Evlis, "0 steps=7201 flat=5588 linked=1165 log=9320 gc_runs=335");
      (rtl, "mergesort", M.Free, "0 steps=7201 flat=858 linked=797 log=5579 gc_runs=336");
      (rtl, "mergesort", M.Sfs, "0 steps=7201 flat=489 linked=445 log=3115 gc_runs=545");
      (rtl, "callcc-generator", M.Tail, "720 steps=702 flat=4205 linked=485 log=3880 gc_runs=30");
      (rtl, "callcc-generator", M.Gc, "720 steps=725 flat=5194 linked=498 log=3984 gc_runs=34");
      (rtl, "callcc-generator", M.Stack, "720 steps=725 flat=5258 linked=564 log=4512 gc_runs=16");
      (rtl, "callcc-generator", M.Evlis, "720 steps=702 flat=4205 linked=485 log=3880 gc_runs=31");
      (rtl, "callcc-generator", M.Free, "720 steps=702 flat=685 linked=378 log=3024 gc_runs=31");
      (rtl, "callcc-generator", M.Sfs, "720 steps=702 flat=485 linked=364 log=2912 gc_runs=59");
      (rtl, "append", M.Tail, "(1 2 3) steps=235 flat=3112 linked=382 log=3056 gc_runs=8");
      (rtl, "append", M.Gc, "(1 2 3) steps=242 flat=3112 linked=382 log=3056 gc_runs=9");
      (rtl, "append", M.Stack, "(1 2 3) steps=242 flat=3112 linked=382 log=3056 gc_runs=5");
      (rtl, "append", M.Evlis, "(1 2 3) steps=235 flat=3112 linked=382 log=3056 gc_runs=9");
      (rtl, "append", M.Free, "(1 2 3) steps=235 flat=688 linked=382 log=3056 gc_runs=8");
      (rtl, "append", M.Sfs, "(1 2 3) steps=235 flat=480 linked=366 log=2928 gc_runs=16");
      (seeded, "stack/gc", M.Tail, "0 steps=297 flat=3305 linked=407 log=3256 gc_runs=21");
      (seeded, "stack/gc", M.Gc, "0 steps=317 flat=5076 linked=437 log=3496 gc_runs=31");
      (seeded, "stack/gc", M.Stack, "0 steps=317 flat=5200 linked=560 log=4480 gc_runs=20");
      (seeded, "stack/gc", M.Evlis, "0 steps=297 flat=3244 linked=407 log=3256 gc_runs=21");
      (seeded, "stack/gc", M.Free, "0 steps=297 flat=677 linked=371 log=2968 gc_runs=22");
      (seeded, "stack/gc", M.Sfs, "0 steps=297 flat=477 linked=363 log=2904 gc_runs=31");
      (seeded, "gc/tail", M.Tail, "0 steps=198 flat=3305 linked=380 log=3040 gc_runs=12");
      (seeded, "gc/tail", M.Gc, "0 steps=209 flat=4116 linked=383 log=3064 gc_runs=13");
      (seeded, "gc/tail", M.Stack, "0 steps=209 flat=4153 linked=416 log=3328 gc_runs=3");
      (seeded, "gc/tail", M.Evlis, "0 steps=198 flat=3215 linked=380 log=3040 gc_runs=12");
      (seeded, "gc/tail", M.Free, "0 steps=198 flat=676 linked=371 log=2968 gc_runs=13");
      (seeded, "gc/tail", M.Sfs, "0 steps=198 flat=476 linked=363 log=2904 gc_runs=13");
      (seeded, "tail/evlis", M.Tail, "8 steps=535 flat=6031 linked=654 log=5232 gc_runs=55");
      (seeded, "tail/evlis", M.Gc, "8 steps=597 flat=10545 linked=698 log=5584 gc_runs=83");
      (seeded, "tail/evlis", M.Stack, "8 steps=597 flat=10545 linked=698 log=5584 gc_runs=63");
      (seeded, "tail/evlis", M.Evlis, "8 steps=535 flat=4651 linked=498 log=3984 gc_runs=63");
      (seeded, "tail/evlis", M.Free, "8 steps=535 flat=677 linked=371 log=2968 gc_runs=64");
      (seeded, "tail/evlis", M.Sfs, "8 steps=535 flat=477 linked=363 log=2904 gc_runs=98");
      (seeded, "evlis/sfs", M.Tail, "8 steps=377 flat=4213 linked=574 log=4592 gc_runs=37");
      (seeded, "evlis/sfs", M.Gc, "8 steps=413 flat=6864 linked=600 log=4800 gc_runs=55");
      (seeded, "evlis/sfs", M.Stack, "8 steps=413 flat=6864 linked=600 log=4800 gc_runs=36");
      (seeded, "evlis/sfs", M.Evlis, "8 steps=377 flat=3805 linked=566 log=4528 gc_runs=37");
      (seeded, "evlis/sfs", M.Free, "8 steps=377 flat=677 linked=371 log=2968 gc_runs=38");
      (seeded, "evlis/sfs", M.Sfs, "8 steps=377 flat=477 linked=363 log=2904 gc_runs=47");
      (seeded, "fib-iter", M.Tail, "55 steps=396 flat=3361 linked=414 log=3312 gc_runs=17");
      (seeded, "fib-iter", M.Gc, "55 steps=412 flat=4796 linked=427 log=3416 gc_runs=20");
      (seeded, "fib-iter", M.Stack, "55 steps=412 flat=4945 linked=573 log=4584 gc_runs=6");
      (seeded, "fib-iter", M.Evlis, "55 steps=396 flat=3361 linked=414 log=3312 gc_runs=17");
      (seeded, "fib-iter", M.Free, "55 steps=396 flat=676 linked=371 log=2968 gc_runs=18");
      (seeded, "fib-iter", M.Sfs, "55 steps=396 flat=476 linked=363 log=2904 gc_runs=39");
      (seeded, "mergesort", M.Tail, "0 steps=7201 flat=5588 linked=1165 log=9320 gc_runs=335");
      (seeded, "mergesort", M.Gc, "0 steps=7481 flat=8437 linked=1177 log=9416 gc_runs=380");
      (seeded, "mergesort", M.Stack, "0 steps=7481 flat=8437 linked=1189 log=9512 gc_runs=142");
      (seeded, "mergesort", M.Evlis, "0 steps=7201 flat=5308 linked=1147 log=9176 gc_runs=361");
      (seeded, "mergesort", M.Free, "0 steps=7201 flat=860 linked=797 log=5579 gc_runs=336");
      (seeded, "mergesort", M.Sfs, "0 steps=7201 flat=668 linked=629 log=4403 gc_runs=565");
      (seeded, "callcc-generator", M.Tail, "720 steps=702 flat=4205 linked=485 log=3880 gc_runs=30");
      (seeded, "callcc-generator", M.Gc, "720 steps=725 flat=5194 linked=498 log=3984 gc_runs=34");
      (seeded, "callcc-generator", M.Stack, "720 steps=725 flat=5258 linked=564 log=4512 gc_runs=16");
      (seeded, "callcc-generator", M.Evlis, "720 steps=702 flat=4096 linked=485 log=3880 gc_runs=31");
      (seeded, "callcc-generator", M.Free, "720 steps=702 flat=685 linked=379 log=3032 gc_runs=31");
      (seeded, "callcc-generator", M.Sfs, "720 steps=702 flat=487 linked=366 log=2928 gc_runs=58");
      (seeded, "append", M.Tail, "(1 2 3) steps=235 flat=3112 linked=382 log=3056 gc_runs=8");
      (seeded, "append", M.Gc, "(1 2 3) steps=242 flat=3112 linked=382 log=3056 gc_runs=9");
      (seeded, "append", M.Stack, "(1 2 3) steps=242 flat=3112 linked=382 log=3056 gc_runs=5");
      (seeded, "append", M.Evlis, "(1 2 3) steps=235 flat=3107 linked=379 log=3032 gc_runs=11");
      (seeded, "append", M.Free, "(1 2 3) steps=235 flat=688 linked=382 log=3056 gc_runs=8");
      (seeded, "append", M.Sfs, "(1 2 3) steps=235 flat=481 linked=363 log=2904 gc_runs=17");
    ]

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
          Alcotest.test_case "perm policies" `Quick test_perm_policies;
          Alcotest.test_case "stack policies" `Quick test_stack_policies;
          Alcotest.test_case "all variants run" `Quick test_variant_answers_each;
          Alcotest.test_case "globals" `Quick test_eval_and_define_global;
          Alcotest.test_case "run_program" `Quick test_run_program_convention;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "random restarts per run" `Quick test_random_per_run;
          Alcotest.test_case "promises" `Quick test_promises;
          Alcotest.test_case "profiling hooks" `Quick test_hooks;
          Alcotest.test_case "creations leave no heap" `Quick
            test_creations_leave_no_heap;
          Alcotest.test_case "seeded orders" `Quick test_seeded_orders;
          Alcotest.test_case "argument order figures" `Quick test_order_figures;
        ] );
      ( "old generation",
        [ Alcotest.test_case "set! of a prelude global" `Quick test_set_prelude_global ] );
      ( "collection history",
        [
          Alcotest.test_case "deep writes and escapes" `Quick test_history_examples;
        ] );
      ( "skipped collections",
        [
          Alcotest.test_case "drop then grow" `Quick test_skips_drop_then_grow;
          Alcotest.test_case "separators" `Quick test_skips_separators;
          Alcotest.test_case "corpus" `Slow test_skips_corpus;
        ] );
      ( "fixnums",
        [
          Alcotest.test_case "on and off: same answers, steps and peaks" `Quick
            test_fixnums_invisible;
        ] );
    ]
