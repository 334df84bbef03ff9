(* The bytecode VM tier (lib/vm).

   - Golden: the instruction stream for a tail-recursive countdown loop
     is pinned, and its self-call must read [TAILCALL] — no frame push,
     the callee reuses the caller's frame — while the exit branch ends
     in [CONST done; RETURN].
   - QCheck: compilation is total on generated closed programs and the
     fast tier's answers agree with the Tail stepper's.
   - Every corpus entry answers as its checks say, and the fixnum fast
     path changes no answer.
   - The VM's own primitive table keeps operand order and sign
     conventions.
   - The tier runs only the vm-fast engine, and rejects configurations
     whose accounting it compiles out. *)

module A = Tailspace_ast.Ast
module M = Tailspace_core.Machine
module SM = Tailspace_core.Space_model
module B = Tailspace_bignum.Bignum
module E = Tailspace_expander.Expand
module Vm = Tailspace_vm.Vm
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families

let input n = A.Quote (A.C_int (B.of_int n))

let fast = M.Config.make ~engine:M.Vm_fast ()

let vm_answer program n =
  match (Vm.exec_program fast ~program ~input:(input n)).Vm.outcome with
  | Vm.Done a -> a
  | Vm.Stuck m -> "error: " ^ m
  | Vm.Aborted _ -> "fuel"

let stepper_answer program n =
  let t = M.create_with M.Config.default in
  match (M.exec_program t ~program ~input:(input n)).M.outcome with
  | M.Done { answer; _ } -> answer
  | M.Stuck m -> "error: " ^ m
  | M.Aborted _ -> "fuel"

(* --- golden: the countdown loop's instruction stream --- *)

let countdown_src =
  "(lambda (n)\n\
  \  (letrec ((loop (lambda (k) (if (zero? k) 'done (loop (- k 1))))))\n\
  \    (loop n)))"

let countdown_golden =
  "main:\n\
  \   0  CLOSURE T0\n\
  \   1  CONST 3\n\
  \   2  CALL 1\n\
  \   3  HALT\n\
   template T0 (lambda/1):\n\
  \   4  CLOSURE T1\n\
  \   5  CONST #!undefined\n\
  \   6  TAILCALL 1\n\
   template T1 (lambda/1):\n\
  \   7  CLOSURE T2\n\
  \   8  CLOSURE T3         ; loop\n\
  \   9  SETLOCAL 0.0       ; loop\n\
  \  10  TAILCALL 1\n\
   template T2 (lambda/1):\n\
  \  11  LOCAL 1.0          ; loop\n\
  \  12  LOCAL 2.0          ; n\n\
  \  13  TAILCALL 1\n\
   template T3 (loop/1):\n\
  \  14  GLOBAL zero?\n\
  \  15  LOCAL 0.0          ; k\n\
  \  16  CALL 1\n\
  \  17  JUMPIFFALSE 20\n\
  \  18  CONST done\n\
  \  19  RETURN\n\
  \  20  LOCAL 1.0          ; loop\n\
  \  21  GLOBAL -\n\
  \  22  LOCAL 0.0          ; k\n\
  \  23  CONST 1\n\
  \  24  CALL 2\n\
  \  25  TAILCALL 1\n"

let test_golden_disassembly () =
  let program = E.program_of_string countdown_src in
  let c = Vm.compile (A.Call (program, [ input 3 ])) in
  Alcotest.(check string) "instruction stream" countdown_golden
    (Vm.disassemble c)

let test_frame_reuse_depth () =
  (* A million tail iterations: with frame reuse this runs in constant
     frame-stack space; a frame-pushing compiler would need a million
     frames. *)
  let program = E.program_of_string countdown_src in
  Alcotest.(check string) "deep countdown" "done" (vm_answer program 1_000_000)

(* --- QCheck: totality + answer agreement on generated programs --- *)

let gen_expr =
  let open QCheck.Gen in
  let const =
    map (fun n -> A.Quote (A.C_int (B.of_int n))) (int_range (-50) 50)
  in
  let var env =
    if env = [] then const
    else
      map
        (fun i -> A.Var (List.nth env (i mod List.length env)))
        (int_range 0 100)
  in
  let fresh = map (fun i -> Printf.sprintf "v%d" i) (int_range 0 1000) in
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
            map3
              (fun a b c -> A.If (A.Call (A.Var "zero?", [ a ]), b, c))
              sub sub sub );
          ( 2,
            fresh >>= fun x ->
            map2
              (fun init body ->
                A.Call (A.Lambda { params = [ x ]; rest = None; body }, [ init ]))
              sub
              (go (x :: env) (depth - 1)) );
          (1, map2 (fun a b -> A.Call (A.Var "cons", [ a; b ])) sub sub);
          ( 1,
            fresh >>= fun x ->
            map2
              (fun arg body ->
                A.Call
                  ( A.Var "apply",
                    [
                      A.Lambda { params = [ x ]; rest = None; body };
                      A.Call (A.Var "list", [ arg ]);
                    ] ))
              sub
              (go (x :: env) (depth - 1)) );
        ]
  in
  QCheck.Gen.sized_size (QCheck.Gen.int_range 1 4) (fun d ->
      go [] (min d 4))

let arb_expr = QCheck.make ~print:A.to_string gen_expr

let prop_vm_agrees =
  QCheck.Test.make ~name:"fast tier agrees with the Tail stepper" ~count:150
    arb_expr (fun body ->
      let program = A.Lambda { A.params = [ "input" ]; rest = None; body } in
      (* Totality: compilation succeeds and yields a nonempty stream. *)
      let c = Vm.compile (A.Call (program, [ input 0 ])) in
      if Array.length (Vm.main_code c) = 0 then false
      else
        String.equal (stepper_answer program 0) (vm_answer program 0))

(* --- corpus: answers agree --- *)

let corpus_programs =
  List.filter_map
    (fun (e : Corpus.entry) ->
      match e.checks with
      | (n, expected) :: _ -> Some (e.name, Corpus.program e, n, expected)
      | [] -> None)
    Corpus.all

let test_corpus_answers () =
  List.iter
    (fun (name, program, n, expected) ->
      Alcotest.(check string) name expected (vm_answer program n))
    corpus_programs

(* The fixnum inputs of test_machine "fixnums": the separators at 12,
   three entries at their first check and fact at its last, whose
   intermediates cross the fixnum/limb boundary both ways. *)
let test_fixnums_invisible () =
  let corpus pick name =
    match Corpus.find name with
    | Some ({ Corpus.checks = _ :: _ as checks; _ } as e) ->
        (name, Corpus.program e, fst (pick checks))
    | _ -> Alcotest.failf "corpus entry %s has no checks" name
  in
  List.iter
    (fun (name, program, n) ->
      let on = vm_answer program n in
      B.set_fixnums false;
      let off =
        Fun.protect
          ~finally:(fun () -> B.set_fixnums true)
          (fun () -> vm_answer program n)
      in
      Alcotest.(check string) (Printf.sprintf "%s n=%d" name n) on off)
    (List.map
       (fun (name, src) -> (name, E.program_of_string src, 12))
       Families.separators
    @ List.map (corpus List.hd) [ "countdown"; "fib-iter"; "even-odd" ]
    @ [ corpus (fun checks -> List.hd (List.rev checks)) "fact" ])

(* test_machine's division-sign and string-append cases ("basics",
   "data"), against the VM's own primitive table. *)
let test_prim_operands () =
  let check name body expected =
    Alcotest.(check string) name expected
      (vm_answer (E.program_of_string ("(lambda (n) " ^ body ^ ")")) 0)
  in
  check "string-append order" "(string-append \"ab\" \"\" \"cd\")" "\"abcd\"";
  check "quotient signs"
    "(list (quotient 7 2) (quotient -7 2) (quotient 7 -2) (quotient -7 -2))"
    "(3 -3 -3 3)";
  check "remainder signs"
    "(list (remainder 7 2) (remainder -7 2) (remainder 7 -2) (remainder -7 -2))"
    "(1 -1 1 -1)";
  check "modulo signs"
    "(list (modulo 7 2) (modulo -7 2) (modulo 7 -2) (modulo -7 -2))"
    "(1 1 -1 -1)"

let test_fast_rejects_accounting () =
  let program = E.program_of_string countdown_src in
  let check_rejects what cfg opts =
    Alcotest.check_raises what
      (Invalid_argument
         (match what with
         | "rtl" -> "Vm: the fast VM tier evaluates left-to-right only"
         | "linked" ->
             "Vm: linked- and log-space measurement requires the stepper"
         | "collect every step" ->
             "Vm: collecting every step requires the stepper"
         | _ -> assert false))
      (fun () ->
        ignore (Vm.exec_program ?opts cfg ~program ~input:(input 1)))
  in
  check_rejects "rtl" { fast with M.Config.perm = M.Right_to_left } None;
  check_rejects "linked" fast
    (Some (M.Run_opts.make ~measure:[ SM.Flat; SM.Linked ] ()));
  check_rejects "collect every step" fast
    (Some (M.Run_opts.make ~collect_every_step:true ()))

(* Space is measured only by [Machine]: handed the stepper engine, the
   VM refuses rather than quietly running its own tier. *)
let test_rejects_stepper () =
  let program = E.program_of_string countdown_src in
  Alcotest.check_raises "stepper"
    (Invalid_argument
       "Vm: only the vm-fast engine runs here; the stepper runs in Machine")
    (fun () ->
      ignore (Vm.exec_program M.Config.default ~program ~input:(input 1)))

let () =
  Alcotest.run "vm"
    [
      ( "compiler",
        [
          Alcotest.test_case "golden countdown disassembly" `Quick
            test_golden_disassembly;
          QCheck_alcotest.to_alcotest prop_vm_agrees;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "frame reuse at depth 1e6" `Quick
            test_frame_reuse_depth;
          Alcotest.test_case "corpus answers" `Quick test_corpus_answers;
          Alcotest.test_case "fixnums on and off" `Quick test_fixnums_invisible;
          Alcotest.test_case "division signs, string-append order" `Quick
            test_prim_operands;
          Alcotest.test_case "fast tier rejects accounting configs" `Quick
            test_fast_rejects_accounting;
          Alcotest.test_case "rejects the stepper engine" `Quick
            test_rejects_stepper;
        ] );
    ]
