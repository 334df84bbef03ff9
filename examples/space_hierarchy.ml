(* The space-complexity hierarchy of Figure 6, in miniature.

   Runs the four separating programs from the proof of Theorem 25 on all
   six reference machines and prints S_X(P, N) side by side, so you can
   watch each inclusion in

       O(S_sfs) < O(S_evlis), O(S_free) < O(S_tail) < O(S_gc) < O(S_stack)

   become strict on the program built to separate it.

       dune exec examples/space_hierarchy.exe *)

module Machine = Tailspace_core.Machine
module Runner = Tailspace_harness.Runner
module Families = Tailspace_corpus.Families
module Table = Tailspace_harness.Table

let ns = [ 16; 32; 64 ]

let () =
  List.iter
    (fun (name, source) ->
      Printf.printf "separating program %s:\n%s\n" name (String.trim source);
      let rows =
        List.map
          (fun variant ->
            let ms =
              Runner.sweep
                (Runner.point ~config:(Machine.Config.make ~variant ()) source)
                ns
            in
            Machine.variant_name variant
            :: List.map
                 (fun (m : Runner.measurement) ->
                   match m.Runner.status with
                   | Runner.Answer _ -> string_of_int m.Runner.space
                   | Runner.Stuck _ -> "stuck"
                   | Runner.Aborted _ -> "aborted")
                 ms)
          Machine.all_variants
      in
      print_newline ();
      print_string
        (Table.render ~header:("S_X(P,N), X=" :: List.map string_of_int ns) rows);
      print_newline ())
    Families.separators;
  print_endline "the full-size sweep with fitted growth orders is printed by";
  print_endline "`dune exec bench/main.exe` (experiment E2)."
