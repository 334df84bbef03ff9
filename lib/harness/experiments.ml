module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Tail_calls = Tailspace_analysis.Tail_calls
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families
module Expand = Tailspace_expander.Expand
module Pool = Tailspace_parallel.Pool

let expand = Expand.program_of_string
let pct = Tail_calls.percent

(* Parallel discipline, shared by every experiment below: programs are
   expanded in the driver, the flattened leaf measurements fan out over
   the pool (each on a fresh machine, see Runner), and the results are
   regrouped in submission order — so tables are byte-identical whatever
   the job count. Tasks never touch the pool themselves. *)

let fit_or_none points =
  if List.length points >= 3 then Some (Growth.fit points) else None

let variant_column variants = List.map Machine.variant_name variants

(* Each of Theorem 25's "O(S_X) not included in O(S_Y)" claims is
   operationalized directly: S_X(P, N) / S_Y(P, N) must diverge as N
   grows. The ratio of ratios between the largest and smallest N is
   required to reach [divergence_threshold] — robust against the
   additive constants (the initial environment) that make absolute
   order fitting noisy at feasible N. *)
let divergence_threshold = 1.4

let divergence ns xs ys =
  let ratio n =
    match (List.assoc_opt n xs, List.assoc_opt n ys) with
    | Some a, Some b when b > 0 -> Some (float_of_int a /. float_of_int b)
    | _ -> None
  in
  match (ratio (List.hd ns), ratio (List.nth ns (List.length ns - 1))) with
  | Some lo, Some hi when lo > 0. -> hi /. lo
  | _ -> 0.

(* ------------------------------------------------------------------ *)

module Fig2 = struct
  type row = { name : string; counts : Tail_calls.counts }

  let run () =
    List.map
      (fun (e : Corpus.entry) ->
        { name = e.name; counts = Tail_calls.analyze (Corpus.program e) })
      Corpus.all

  let total rows =
    List.fold_left
      (fun acc r -> Tail_calls.add acc r.counts)
      Tail_calls.zero rows

  let render rows =
    let line name (c : Tail_calls.counts) =
      [
        name;
        string_of_int c.calls;
        string_of_int c.tail_calls;
        Printf.sprintf "%.1f%%" (pct c.tail_calls c.calls);
        string_of_int c.self_tail_calls;
        Printf.sprintf "%.1f%%" (pct c.self_tail_calls c.calls);
        Printf.sprintf "%.1f%%" (pct c.known_calls c.calls);
      ]
    in
    let rows' = List.map (fun r -> line r.name r.counts) rows in
    let total_row = line "TOTAL" (total rows) in
    Table.section "E1 / Figure 2: static frequency of tail calls (corpus)"
    ^ Table.render
        ~header:
          [ "program"; "calls"; "tail"; "tail%"; "self-tail"; "self%"; "known%" ]
        (rows' @ [ total_row ])
end

(* ------------------------------------------------------------------ *)

module Thm25 = struct
  type cell = {
    variant : Machine.variant;
    spaces : (int * int) list;
    fit : Growth.fit option;
  }

  type sweep = { separator : string; ns : int list; cells : cell list }

  let default_ns = [ 20; 40; 80; 160 ]

  let run ?pool ?(ns = default_ns) ?fuel () =
    let programs =
      List.map (fun (name, source) -> (name, expand source)) Families.separators
    in
    let leaves =
      List.concat_map
        (fun (name, program) ->
          List.concat_map
            (fun variant -> List.map (fun n -> (name, program, variant, n)) ns)
            Machine.all_variants)
        programs
    in
    let measured =
      Pool.map ?pool
        (fun (_, program, variant, n) ->
          Runner.run_once
            ~opts:(Machine.Run_opts.make ?fuel ())
            ~config:(Machine.Config.make ~variant ())
            ~program ~n ())
        leaves
    in
    let tagged = List.combine leaves measured in
    List.map
      (fun (name, _) ->
        let cells =
          List.map
            (fun variant ->
              let ms =
                List.filter_map
                  (fun ((name', _, v, _), m) ->
                    if String.equal name' name && v = variant then Some m
                    else None)
                  tagged
              in
              let spaces = Runner.spaces ms in
              { variant; spaces; fit = fit_or_none spaces })
            Machine.all_variants
        in
        { separator = name; ns; cells })
      programs

  let claims sweeps =
    let find name = List.find (fun s -> s.separator = name) sweeps in
    let spaces_of s v =
      match List.find_opt (fun c -> c.variant = v) s.cells with
      | Some c -> c.spaces
      | None -> []
    in
    let diverges s x y =
      divergence s.ns (spaces_of s x) (spaces_of s y) >= divergence_threshold
    in
    let s1 = find "stack/gc"
    and s2 = find "gc/tail"
    and s3 = find "tail/evlis"
    and s4 = find "evlis/sfs" in
    [
      ("stack/gc: S_stack diverges from S_gc", diverges s1 Machine.Stack Machine.Gc);
      ("gc/tail: S_gc diverges from S_tail", diverges s2 Machine.Gc Machine.Tail);
      ( "gc/tail: S_tail bounded",
        match spaces_of s2 Machine.Tail with
        | (_, s0) :: rest ->
            List.for_all (fun (_, s) -> float_of_int s <= 1.2 *. float_of_int s0) rest
        | [] -> false );
      ("tail/evlis: S_tail diverges from S_evlis", diverges s3 Machine.Tail Machine.Evlis);
      ("tail/evlis: S_free diverges from S_evlis", diverges s3 Machine.Free Machine.Evlis);
      ("tail/evlis: S_free diverges from S_sfs", diverges s3 Machine.Free Machine.Sfs);
      ("evlis/sfs: S_tail diverges from S_free", diverges s4 Machine.Tail Machine.Free);
      ("evlis/sfs: S_evlis diverges from S_free", diverges s4 Machine.Evlis Machine.Free);
      ("evlis/sfs: S_evlis diverges from S_sfs", diverges s4 Machine.Evlis Machine.Sfs);
    ]

  let render sweeps =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Table.section
         "E2 / Theorem 25 + Figure 6: separating programs, S_X(P, N) by \
          variant");
    List.iter
      (fun sweep ->
        Buffer.add_string buf (Printf.sprintf "\nseparator %s:\n" sweep.separator);
        let header =
          "variant" :: List.map string_of_int sweep.ns @ [ "fitted" ]
        in
        let rows =
          List.map
            (fun c ->
              Machine.variant_name c.variant
              :: List.map
                   (fun n ->
                     match List.assoc_opt n c.spaces with
                     | Some s -> string_of_int s
                     | None -> "stuck")
                   sweep.ns
              @ [
                  (match c.fit with
                  | Some f -> Growth.order_name f.Growth.order
                  | None -> "-");
                ])
            sweep.cells
        in
        Buffer.add_string buf (Table.render ~header rows))
      sweeps;
    Buffer.add_string buf "\npaper claims:\n";
    List.iter
      (fun (claim, ok) ->
        Buffer.add_string buf
          (Printf.sprintf "  [%s] %s\n" (if ok then "ok" else "FAIL") claim))
      (claims sweeps);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Thm24 = struct
  type row = {
    name : string;
    n : int;
    s : (Machine.variant * int) list;
    chain_ok : bool;
  }

  let chain_holds s =
    let v x = List.assoc x s in
    v Machine.Tail <= v Machine.Gc
    && v Machine.Gc <= v Machine.Stack
    && v Machine.Sfs <= v Machine.Evlis
    && v Machine.Evlis <= v Machine.Tail
    && v Machine.Sfs <= v Machine.Free
    && v Machine.Free <= v Machine.Tail

  let run ?pool ?(include_slow = false) () =
    let entries =
      Corpus.all
      |> List.filter (fun (e : Corpus.entry) -> include_slow || not e.slow)
      |> List.filter_map (fun (e : Corpus.entry) ->
             match e.checks with
             | [] -> None
             | (n, _) :: _ -> Some (e.name, n, Corpus.program e))
    in
    let leaves =
      List.concat_map
        (fun (name, n, program) ->
          List.map (fun v -> (name, n, program, v)) Machine.all_variants)
        entries
    in
    let measured =
      Pool.map ?pool
        (fun (_, n, program, variant) ->
          let m =
            Runner.run_once
              ~config:(Machine.Config.make ~variant ())
              ~program ~n ()
          in
          m.Runner.space)
        leaves
    in
    let tagged = List.combine leaves measured in
    List.map
      (fun (name, n, _) ->
        let s =
          List.filter_map
            (fun ((name', _, _, v), space) ->
              if String.equal name' name then Some (v, space) else None)
            tagged
        in
        { name; n; s; chain_ok = chain_holds s })
      entries

  let render rows =
    Table.section
      "E3 / Theorem 24: pointwise S_sfs <= {S_evlis, S_free} <= S_tail <= \
       S_gc <= S_stack"
    ^ Table.render
        ~header:("program" :: "N" :: variant_column Machine.all_variants @ [ "chain" ])
        (List.map
           (fun r ->
             r.name :: string_of_int r.n
             :: List.map (fun v -> string_of_int (List.assoc v r.s)) Machine.all_variants
             @ [ (if r.chain_ok then "ok" else "VIOLATED") ])
           rows)
end

(* ------------------------------------------------------------------ *)

module Thm26 = struct
  type row = { n : int; u_tail : int; s_tail : int; s_sfs : int }

  type result = {
    rows : row list;
    u_tail_fit : Growth.fit option;
    s_sfs_fit : Growth.fit option;
  }

  let default_ns = [ 8; 12; 18; 27; 40 ]

  let space_of (m : Runner.measurement) = m.Runner.space

  let answered (m : Runner.measurement) =
    match m.Runner.status with Runner.Answer _ -> true | _ -> false

  let run ?pool ?(ns = default_ns) ?fuel () =
    let tasks = List.map (fun n -> (n, expand (Families.pk_program n))) ns in
    let measured =
      Pool.map ?pool
        (fun (n, program) ->
          let tail_m =
            Runner.run_once
              ~opts:
                (Machine.Run_opts.make ?fuel
                   ~measure:[ Space_model.Flat; Space_model.Linked ] ())
              ~config:(Machine.Config.make ~variant:Machine.Tail ())
              ~program ~n ()
          in
          let sfs_m =
            Runner.run_once
              ~opts:(Machine.Run_opts.make ?fuel ())
              ~config:(Machine.Config.make ~variant:Machine.Sfs ())
              ~program ~n ()
          in
          (n, tail_m, sfs_m))
        tasks
    in
    let rows =
      List.map
        (fun (n, tail_m, sfs_m) ->
          {
            n;
            u_tail =
              Option.value ~default:0
                (Runner.consumption tail_m Space_model.Linked);
            s_tail = space_of tail_m;
            s_sfs = space_of sfs_m;
          })
        measured
    in
    (* Fits run over the points that actually answered: a starved sweep
       (tight fuel, small ns) degrades to fit [None] and a rendered
       table instead of Growth.fit's Invalid_argument. *)
    let u_points =
      List.filter_map
        (fun (n, tail_m, _) ->
          if answered tail_m then
            Option.map
              (fun l -> (n, l))
              (Runner.consumption tail_m Space_model.Linked)
          else None)
        measured
    in
    let s_points =
      List.filter_map
        (fun (n, _, sfs_m) ->
          if answered sfs_m then Some (n, space_of sfs_m) else None)
        measured
    in
    { rows; u_tail_fit = fit_or_none u_points; s_sfs_fit = fit_or_none s_points }

  let fit_name = function
    | Some f -> Growth.order_name f.Growth.order
    | None -> "-"

  let render result =
    Table.section
      "E4 / Theorem 26 + Figure 8: flat vs linked environments on P_N"
    ^ Table.render
        ~header:[ "N"; "U_tail(P_N,N)"; "S_tail(P_N,N)"; "S_sfs(P_N,N)" ]
        (List.map
           (fun r ->
             [
               string_of_int r.n;
               string_of_int r.u_tail;
               string_of_int r.s_tail;
               string_of_int r.s_sfs;
             ])
           result.rows)
    ^ Printf.sprintf "U_tail fits %s; S_sfs fits %s  (paper: O(N log N) vs O(N^2))\n"
        (fit_name result.u_tail_fit) (fit_name result.s_sfs_fit)
end

(* ------------------------------------------------------------------ *)

module Sec4 = struct
  type row = {
    spine : string;
    variant : Machine.variant;
    deltas : (int * int) list;
    fit : Growth.fit option;
  }

  let default_ns = [ 24; 48; 96; 192 ]

  let run ?pool ?(ns = default_ns) () =
    let programs =
      [
        ( "right",
          expand Families.find_leftmost_right_traverse,
          expand Families.find_leftmost_right_build );
        ( "left",
          expand Families.find_leftmost_left_traverse,
          expand Families.find_leftmost_left_build );
      ]
    in
    List.concat_map
      (fun (spine, traverse, build) ->
        List.map
          (fun variant ->
            let config = Machine.Config.make ~variant () in
            let tm = Runner.sweep ?pool ~config ~program:traverse ~ns () in
            let bm = Runner.sweep ?pool ~config ~program:build ~ns () in
            let deltas =
              List.filter_map
                (fun n ->
                  match
                    ( List.assoc_opt n (Runner.spaces tm),
                      List.assoc_opt n (Runner.spaces bm) )
                  with
                  | Some t, Some b -> Some (n, t - b)
                  | _ -> None)
                ns
            in
            { spine; variant; deltas; fit = fit_or_none deltas })
          [ Machine.Tail; Machine.Gc; Machine.Stack ])
      programs

  let render rows =
    Table.section
      "E5 / §4: find-leftmost traversal overhead (S_traverse - S_build)"
    ^ Table.render
        ~header:
          ("spine" :: "variant"
          :: List.map string_of_int
               (match rows with r :: _ -> List.map fst r.deltas | [] -> [])
          @ [ "fitted" ])
        (List.map
           (fun r ->
             r.spine
             :: Machine.variant_name r.variant
             :: List.map (fun (_, d) -> string_of_int d) r.deltas
             @ [
                 (match r.fit with
                 | Some f -> Growth.order_name f.Growth.order
                 | None -> "-");
               ])
           rows)
    ^ "paper: right spine is O(1) under I_tail but grows under I_gc/I_stack;\n\
       left spine grows under every variant.\n"
end

(* ------------------------------------------------------------------ *)

module Cor20 = struct
  type row = {
    name : string;
    n : int;
    answers : (Machine.variant * string) list;
    agree : bool;
  }

  let run ?pool ?(include_slow = false) () =
    let entries =
      Corpus.all
      |> List.filter (fun (e : Corpus.entry) -> include_slow || not e.slow)
      |> List.filter_map (fun (e : Corpus.entry) ->
             match e.checks with
             | [] -> None
             | (n, _) :: _ -> Some (e.name, n, Corpus.program e))
    in
    let leaves =
      List.concat_map
        (fun (name, n, program) ->
          List.map (fun v -> (name, n, program, v)) Machine.all_variants)
        entries
    in
    let measured =
      Pool.map ?pool
        (fun (_, n, program, variant) ->
          let m =
            Runner.run_once
              ~config:(Machine.Config.make ~variant ())
              ~program ~n ()
          in
          match m.Runner.status with
          | Runner.Answer a -> a
          | Runner.Stuck s -> "stuck: " ^ s
          | Runner.Aborted r -> Runner.Resilience.abort_reason_name r)
        leaves
    in
    let tagged = List.combine leaves measured in
    List.map
      (fun (name, n, _) ->
        let answers =
          List.filter_map
            (fun ((name', _, _, v), text) ->
              if String.equal name' name then Some (v, text) else None)
            tagged
        in
        let agree =
          match answers with
          | (_, first) :: rest ->
              List.for_all (fun (_, a) -> String.equal a first) rest
          | [] -> true
        in
        { name; n; answers; agree })
      entries

  let render rows =
    Table.section
      "E6 / Corollary 20: all reference implementations compute the same \
       answers"
    ^ Table.render
        ~header:[ "program"; "N"; "answer (I_tail)"; "all 6 agree" ]
        (List.map
           (fun r ->
             let answer = List.assoc Machine.Tail r.answers in
             let shown =
               if String.length answer > 32 then String.sub answer 0 29 ^ "..."
               else answer
             in
             [
               r.name;
               string_of_int r.n;
               shown;
               (if r.agree then "yes" else "NO");
             ])
           rows)
end

(* ------------------------------------------------------------------ *)

module Cps = struct
  type result = {
    ns : int list;
    tail : (int * int) list;
    gc : (int * int) list;
    tail_fit : Growth.fit option;
    gc_fit : Growth.fit option;
  }

  let default_ns = [ 32; 64; 128; 256 ]

  let run ?pool ?(ns = default_ns) ?fuel () =
    let program = expand Families.cps_loop in
    let opts = Machine.Run_opts.make ?fuel () in
    let tail =
      Runner.spaces
        (Runner.sweep ?pool ~opts
           ~config:(Machine.Config.make ~variant:Machine.Tail ())
           ~program ~ns ())
    in
    let gc =
      Runner.spaces
        (Runner.sweep ?pool ~opts
           ~config:(Machine.Config.make ~variant:Machine.Gc ())
           ~program ~ns ())
    in
    (* [Runner.spaces] keeps only answered points, so a starved sweep
       can leave fewer than three: fit [None] rather than raise. *)
    { ns; tail; gc; tail_fit = fit_or_none tail; gc_fit = fit_or_none gc }

  let render r =
    let cell spaces n =
      match List.assoc_opt n spaces with
      | Some s -> string_of_int s
      | None -> "-"
    in
    let fit_name = function
      | Some f -> Growth.order_name f.Growth.order
      | None -> "-"
    in
    Table.section "E7 / §1: pure CPS needs bounded space only if properly tail recursive"
    ^ Table.render
        ~header:("variant" :: List.map string_of_int r.ns @ [ "fitted" ])
        [
          ("tail" :: List.map (cell r.tail) r.ns) @ [ fit_name r.tail_fit ];
          ("gc" :: List.map (cell r.gc) r.ns) @ [ fit_name r.gc_fit ];
        ]
end

(* ------------------------------------------------------------------ *)

module Ablation = struct
  type sweep = { label : string; spaces : (int * int) list }

  type result = {
    ns : int list;
    return_env_rows : sweep list;
    evlis_rows : sweep list;
    stack_gc_divergence_faithful : float;
    stack_gc_divergence_literal : float;
    tail_evlis_divergence_faithful : float;
    tail_evlis_divergence_literal : float;
  }

  let default_ns = [ 20; 40; 80; 160 ]

  let run ?pool ?(ns = default_ns) () =
    let sweep ?return_env ?evlis_drop_at_creation ~variant label source =
      let program = expand source in
      let ms =
        Runner.sweep ?pool
          ~config:
            (Machine.Config.make ?return_env ?evlis_drop_at_creation
               ~variant ())
          ~program ~ns ()
      in
      { label; spaces = Runner.spaces ms }
    in
    let gc_f =
      sweep ~variant:Machine.Gc "gc, closure-env frames (faithful)"
        Families.separator_stack_gc
    and stack_f =
      sweep ~variant:Machine.Stack "stack, closure-env frames (faithful)"
        Families.separator_stack_gc
    and gc_l =
      sweep ~return_env:Machine.Register_env ~variant:Machine.Gc
        "gc, register-env frames (literal)" Families.separator_stack_gc
    and stack_l =
      sweep ~return_env:Machine.Register_env ~variant:Machine.Stack
        "stack, register-env frames (literal)" Families.separator_stack_gc
    in
    let tail_e =
      sweep ~variant:Machine.Tail "tail (unaffected)"
        Families.separator_tail_evlis
    and evlis_f =
      sweep ~variant:Machine.Evlis "evlis, drop at creation (faithful)"
        Families.separator_tail_evlis
    and evlis_l =
      sweep ~evlis_drop_at_creation:false ~variant:Machine.Evlis
        "evlis, printed rules only (literal)" Families.separator_tail_evlis
    in
    {
      ns;
      return_env_rows = [ gc_f; stack_f; gc_l; stack_l ];
      evlis_rows = [ tail_e; evlis_f; evlis_l ];
      stack_gc_divergence_faithful = divergence ns stack_f.spaces gc_f.spaces;
      stack_gc_divergence_literal = divergence ns stack_l.spaces gc_l.spaces;
      tail_evlis_divergence_faithful =
        divergence ns tail_e.spaces evlis_f.spaces;
      tail_evlis_divergence_literal = divergence ns tail_e.spaces evlis_l.spaces;
    }

  let render r =
    let table rows =
      Table.render
        ~header:("S(P,N)" :: List.map string_of_int r.ns)
        (List.map
           (fun s ->
             s.label
             :: List.map
                  (fun n ->
                    match List.assoc_opt n s.spaces with
                    | Some v -> string_of_int v
                    | None -> "stuck")
                  r.ns)
           rows)
    in
    Table.section
      "E8 / ablation: literal readings of two ambiguous rules break Theorem 25"
    ^ "
return frames (separator stack/gc):
"
    ^ table r.return_env_rows
    ^ Printf.sprintf
        "S_stack/S_gc divergence: %.2f faithful vs %.2f literal — the\n\
         separation needs frames that do not capture the caller's\n\
         register environment.\n"
        r.stack_gc_divergence_faithful r.stack_gc_divergence_literal
    ^ "
evlis and nullary calls (separator tail/evlis):
"
    ^ table r.evlis_rows
    ^ Printf.sprintf
        "S_tail/S_evlis divergence: %.2f faithful vs %.2f literal — evlis\n\
         must drop the environment when a frame is created with no\n\
         remaining subexpressions.\n"
        r.tail_evlis_divergence_faithful r.tail_evlis_divergence_literal
end

(* ------------------------------------------------------------------ *)

module Sanity = struct
  module Secd = Tailspace_engines.Secd

  type cell = {
    program : string;
    engine_order : Growth.order;
    tail_order : Growth.order;
    ok : bool;
  }

  type row = {
    engine : string;
    cells : cell list;
    properly_tail_recursive : bool;
  }

  type result = { ns : int list; rows : row list }

  let default_ns = [ 32; 64; 128; 256 ]

  (* iteration-shaped programs the SECD subset can run (no prelude, no
     call/cc) whose S_tail is bounded, so any frame leak shows up as
     divergence *)
  let battery =
    [
      ("countdown", Families.separator_gc_tail);
      ("cps-loop", Families.cps_loop);
      ( "even-odd",
        "(define (e? n) (if (zero? n) #t (o? (- n 1))))
         (define (o? n) (if (zero? n) #f (e? (- n 1))))
         e?" );
      ("find-leftmost (right spine)", Families.find_leftmost_right_traverse);
    ]

  let secd_engine ~proper name =
    ( name,
      fun ~program ~n ->
        let r = Secd.run_program ~proper_tail_calls:proper ~program ~input:(Runner.input_expr n) () in
        match r.Secd.outcome with
        | Secd.Done _ -> Some r.Secd.peak_words
        | Secd.Error _ | Secd.Aborted _ -> None )

  let machine_engine variant name =
    ( name,
      fun ~program ~n ->
        let m =
          Runner.run_once
            ~config:(Machine.Config.make ~variant ())
            ~program ~n ()
        in
        match m.Runner.status with
        | Runner.Answer _ -> Some m.Runner.space
        | _ -> None )

  let engines =
    [
      secd_engine ~proper:true "secd (tail-recursive)";
      secd_engine ~proper:false "secd (classic)";
      machine_engine Machine.Gc "reference I_gc (control)";
    ]

  let run ?pool ?(ns = default_ns) () =
    let programs =
      List.map (fun (name, src) -> (name, expand src)) battery
    in
    let tail_spaces =
      List.map
        (fun (name, program) ->
          ( name,
            Runner.spaces
              (Runner.sweep ?pool
                 ~config:(Machine.Config.make ~variant:Machine.Tail ())
                 ~program ~ns ()) ))
        programs
    in
    let rows =
      List.map
        (fun (engine, run_engine) ->
          let cells =
            List.map
              (fun (name, program) ->
                let tails = List.assoc name tail_spaces in
                let engine_points =
                  List.combine ns
                    (Pool.map ?pool (fun n -> run_engine ~program ~n) ns)
                  |> List.filter_map (fun (n, e) ->
                         Option.map (fun e -> (n, e)) e)
                in
                if List.length engine_points >= 3 && List.length tails >= 3
                then begin
                  let engine_order = Growth.classify engine_points in
                  let tail_order = Growth.classify tails in
                  {
                    program = name;
                    engine_order;
                    tail_order;
                    (* up-to-logarithmic slack: the bignum loop counter
                       costs 1 + log2 N words, visible over the engine's
                       small constant but hidden under the reference
                       machine's initial-store constant — the same
                       caveat Theorem 25's proof notes for unlimited
                       precision arithmetic *)
                    ok =
                      engine_order = tail_order
                      || (not (Growth.at_least engine_order tail_order))
                      || not (Growth.at_least engine_order Growth.Linear);
                  }
                end
                else
                  (* a run failed: flag conservatively *)
                  {
                    program = name;
                    engine_order = Growth.Quadratic;
                    tail_order = Growth.Constant;
                    ok = false;
                  })
              programs
          in
          {
            engine;
            cells;
            properly_tail_recursive = List.for_all (fun c -> c.ok) cells;
          })
        engines
    in
    { ns; rows }

  let render r =
    Table.section
      "E9 / \xc2\xa714 sanity check: which implementations are properly tail recursive?"
    ^ Table.render
        ~header:
          ("implementation"
          :: List.map (fun (name, _) -> name) battery
          @ [ "verdict" ])
        (List.map
           (fun row ->
             row.engine
             :: List.map
                  (fun c ->
                    Printf.sprintf "%s vs %s"
                      (Growth.order_name c.engine_order)
                      (Growth.order_name c.tail_order))
                  row.cells
             @ [
                 (if row.properly_tail_recursive then "properly tail recursive"
                  else "SPACE LEAK");
               ])
           r.rows)
    ^ "cells: fitted growth of the implementation's live space vs S_tail's.\n"
    ^ "An implementation is flagged when it grows strictly faster than S_tail\n"
    ^ "on some program (Definition 5). The tail-recursive SECD machine passes;\n"
    ^ "the classic SECD machine and I_gc leak a frame per call, as \xc2\xa714 expects.\n"
end

(* ------------------------------------------------------------------ *)

module LogHier = struct
  (* Theorems 24/25/26 are stated for the flat and linked models; the
     logarithmic model re-prices every linked unit at ceil(log2 |store|)
     bits, a factor that itself grows with the live store. This
     experiment re-runs each separation with all three models measured
     and reports, per strict inclusion, whether the divergence survives
     the re-pricing: a pointer-size factor of O(log S) cannot close a
     polynomial gap, but it can (and does, on the N log N families)
     shift where feasible-N divergence ratios land. *)

  type pair = {
    separation : string;  (** separator family name, "x/y" *)
    flat_div : float;  (** divergence of S_x / S_y, smallest to largest N *)
    log_div : float;  (** the same ratio-of-ratios under Log *)
    survives : bool;  (** [log_div >= divergence_threshold] *)
  }

  type result = {
    ns : int list;
    pairs : pair list;
    chain_rows : (string * bool) list;
        (** Theorem 24's pointwise chain re-checked on Log consumption *)
    pk_ns : int list;
    thm26_flat_div : float;  (** S_sfs against U_tail on P_N (the paper's) *)
    thm26_log_div : float;  (** S_sfs against Log_tail *)
    thm26_survives : bool;
  }

  let default_ns = Thm25.default_ns

  (* Each separator family with the pair of variants its strict
     inclusion compares (Theorem 25's four adjacent separations). *)
  let separations =
    [
      ("stack/gc", Machine.Stack, Machine.Gc);
      ("gc/tail", Machine.Gc, Machine.Tail);
      ("tail/evlis", Machine.Tail, Machine.Evlis);
      ("evlis/sfs", Machine.Evlis, Machine.Sfs);
    ]

  let all_models = [ Space_model.Flat; Space_model.Linked; Space_model.Log ]

  let run ?pool ?(ns = default_ns) ?fuel () =
    let opts = Machine.Run_opts.make ?fuel ~measure:all_models () in
    (* Only the two variants each inclusion compares are measured: the
       per-step linked walk the heavy models force makes a full
       six-variant sweep needlessly slow here. *)
    let leaves =
      List.concat_map
        (fun (sep, x, y) ->
          let program = expand (List.assoc sep Families.separators) in
          List.concat_map
            (fun variant -> List.map (fun n -> (sep, program, variant, n)) ns)
            [ x; y ])
        separations
    in
    let measured =
      Pool.map ?pool
        (fun (_, program, variant, n) ->
          Runner.run_once ~opts
            ~config:(Machine.Config.make ~variant ())
            ~program ~n ())
        leaves
    in
    let tagged = List.combine leaves measured in
    let spaces_of model sep variant =
      Runner.spaces_for model
        (List.filter_map
           (fun ((sep', _, v, _), m) ->
             if String.equal sep' sep && v = variant then Some m else None)
           tagged)
    in
    let pairs =
      List.map
        (fun (sep, x, y) ->
          let div model =
            divergence ns (spaces_of model sep x) (spaces_of model sep y)
          in
          let log_div = div Space_model.Log in
          {
            separation = sep;
            flat_div = div Space_model.Flat;
            log_div;
            survives = log_div >= divergence_threshold;
          })
        separations
    in
    (* Theorem 24's chain, re-checked pointwise on Log consumption. It
       is not implied by the flat chain: the pointer-size factor is a
       function of each variant's own store, so two variants' log
       figures are scaled by different factors. *)
    let chain_entries =
      List.filter_map
        (fun name ->
          match Corpus.find name with
          | Some e -> (
              match e.Corpus.checks with
              | (n, _) :: _ -> Some (e.Corpus.name, n, Corpus.program e)
              | [] -> None)
          | None -> None)
        [ "countdown"; "fib-iter"; "even-odd" ]
    in
    let chain_leaves =
      List.concat_map
        (fun (name, n, program) ->
          List.map (fun v -> (name, n, program, v)) Machine.all_variants)
        chain_entries
    in
    let chain_measured =
      Pool.map ?pool
        (fun (_, n, program, variant) ->
          let m =
            Runner.run_once ~opts
              ~config:(Machine.Config.make ~variant ())
              ~program ~n ()
          in
          Option.value ~default:0 (Runner.consumption m Space_model.Log))
        chain_leaves
    in
    let chain_tagged = List.combine chain_leaves chain_measured in
    let chain_rows =
      List.map
        (fun (name, _, _) ->
          let s =
            List.filter_map
              (fun ((name', _, _, v), l) ->
                if String.equal name' name then Some (v, l) else None)
              chain_tagged
          in
          (name, Thm24.chain_holds s))
        chain_entries
    in
    (* Theorem 26 on P_N: the paper separates flat S_sfs from linked
       U_tail; under the log model the tail side is re-priced to
       Log_tail (bit-units — the ratio-of-ratios cancels the unit). *)
    let pk_ns = Thm26.default_ns in
    let pk =
      Pool.map ?pool
        (fun (n, program) ->
          let tail_m =
            Runner.run_once ~opts
              ~config:(Machine.Config.make ~variant:Machine.Tail ())
              ~program ~n ()
          in
          let sfs_m =
            Runner.run_once ~opts
              ~config:(Machine.Config.make ~variant:Machine.Sfs ())
              ~program ~n ()
          in
          (tail_m, sfs_m))
        (List.map (fun n -> (n, expand (Families.pk_program n))) pk_ns)
    in
    let tails = List.map fst pk and sfss = List.map snd pk in
    let thm26_flat_div =
      divergence pk_ns (Runner.spaces sfss)
        (Runner.spaces_for Space_model.Linked tails)
    in
    let thm26_log_div =
      divergence pk_ns (Runner.spaces sfss)
        (Runner.spaces_for Space_model.Log tails)
    in
    {
      ns;
      pairs;
      chain_rows;
      pk_ns;
      thm26_flat_div;
      thm26_log_div;
      thm26_survives = thm26_log_div >= divergence_threshold;
    }

  let render r =
    let fmt = Printf.sprintf "%.2f" in
    Table.section
      "E10 / log model: the space hierarchy under pointer-size accounting"
    ^ Table.render
        ~header:[ "separation"; "flat div"; "log div"; "under Log" ]
        (List.map
           (fun p ->
             [
               p.separation;
               fmt p.flat_div;
               fmt p.log_div;
               (if p.survives then "survives" else "COLLAPSES");
             ])
           r.pairs
        @ [
            [
              "thm26 sfs(flat)/tail";
              fmt r.thm26_flat_div;
              fmt r.thm26_log_div;
              (if r.thm26_survives then "survives" else "COLLAPSES");
            ];
          ])
    ^ Printf.sprintf "Theorem 24 chain on Log consumption: %s\n"
        (String.concat ", "
           (List.map
              (fun (name, ok) ->
                Printf.sprintf "%s %s" name (if ok then "ok" else "VIOLATED"))
              r.chain_rows))
    ^ Printf.sprintf
        "div: ratio of S_x/S_y between the smallest and largest N (>= %g\n\
         counts as divergence). Log re-prices every linked unit at\n\
         ceil(log2 |store|) bits, so a polynomial separation survives while\n\
         the factor only shifts the ratios.\n"
        divergence_threshold
end

(* ------------------------------------------------------------------ *)

let render_all ?pool () =
  String.concat ""
    [
      Fig2.render (Fig2.run ());
      Thm25.render (Thm25.run ?pool ());
      Thm24.render (Thm24.run ?pool ());
      Thm26.render (Thm26.run ?pool ());
      Sec4.render (Sec4.run ?pool ());
      Cor20.render (Cor20.run ?pool ());
      Cps.render (Cps.run ?pool ());
      Ablation.render (Ablation.run ?pool ());
      Sanity.render (Sanity.run ?pool ());
      LogHier.render (LogHier.run ?pool ());
    ]
