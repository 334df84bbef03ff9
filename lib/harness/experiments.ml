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

let variant_column variants = List.map Machine.variant_name variants

(* Every verdict below is one comparison of two growth exponents
   ([Growth.separates]): S_x separates from S_y when its increments over
   the top doubling grow at least half a class faster. A verdict keeps
   both exponents, so the report shows what it was decided on. *)
type verdict = {
  claim : string;
  x : float option;
  y : float option;
  holds : bool;
}

let separation claim x y = { claim; x; y; holds = Growth.separates x y }

let versus v = Printf.sprintf "%s vs %s" (Growth.show v.x) (Growth.show v.y)

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
    exponent : float option;
  }

  type sweep = { separator : string; ns : int list; cells : cell list }

  let default_ns = [ 20; 40; 80; 160; 320 ]

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
              { variant; spaces; exponent = Growth.exponent spaces })
            Machine.all_variants
        in
        { separator = name; ns; cells })
      programs

  let claims sweeps =
    let exponent name v =
      let s = List.find (fun s -> s.separator = name) sweeps in
      match List.find_opt (fun c -> c.variant = v) s.cells with
      | Some c -> c.exponent
      | None -> None
    in
    let separates name x y =
      separation
        (Printf.sprintf "%s: S_%s separates from S_%s" name
           (Machine.variant_name x) (Machine.variant_name y))
        (exponent name x) (exponent name y)
    in
    let tail = exponent "gc/tail" Machine.Tail in
    [
      separates "stack/gc" Machine.Stack Machine.Gc;
      separates "gc/tail" Machine.Gc Machine.Tail;
      {
        claim = "gc/tail: S_tail bounded";
        x = tail;
        y = Some 0.;
        holds = Growth.bounded tail;
      };
      separates "tail/evlis" Machine.Tail Machine.Evlis;
      separates "tail/evlis" Machine.Free Machine.Evlis;
      separates "tail/evlis" Machine.Free Machine.Sfs;
      separates "evlis/sfs" Machine.Tail Machine.Free;
      separates "evlis/sfs" Machine.Evlis Machine.Free;
      separates "evlis/sfs" Machine.Evlis Machine.Sfs;
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
        let header = "variant" :: List.map string_of_int sweep.ns @ [ "p" ] in
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
              @ [ Growth.show c.exponent ])
            sweep.cells
        in
        Buffer.add_string buf (Table.render ~header rows))
      sweeps;
    Buffer.add_string buf
      "\np: growth exponent of S over the top doubling. S_x separates from \
       S_y when\n\
       p_x >= p_y + 0.5; S is bounded when p < 0.5.\n\
       \npaper claims:\n";
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf "  [%s] %s  (%s)\n"
             (if v.holds then "ok" else "FAIL")
             v.claim (versus v)))
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
    u_tail_exponent : float option;
    s_sfs_exponent : float option;
  }

  let default_ns = [ 10; 20; 40; 80 ]

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
    (* Exponents are read over the points that actually answered: a
       starved sweep (tight fuel, small ns) leaves them unresolved. *)
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
    {
      rows;
      u_tail_exponent = Growth.exponent u_points;
      s_sfs_exponent = Growth.exponent s_points;
    }

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
    ^ Printf.sprintf
        "S_sfs %s from U_tail  (p = %s vs %s; paper: O(N^2) vs O(N log N))\n"
        (if Growth.separates result.s_sfs_exponent result.u_tail_exponent
         then "separates"
         else "does NOT separate")
        (Growth.show result.s_sfs_exponent)
        (Growth.show result.u_tail_exponent)
end

(* ------------------------------------------------------------------ *)

module Sec4 = struct
  type row = {
    spine : string;
    variant : Machine.variant;
    deltas : (int * int) list;
    exponent : float option;
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
            { spine; variant; deltas; exponent = Growth.exponent deltas })
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
          @ [ "p" ])
        (List.map
           (fun r ->
             r.spine
             :: Machine.variant_name r.variant
             :: List.map (fun (_, d) -> string_of_int d) r.deltas
             @ [ Growth.show r.exponent ])
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
    tail_exponent : float option;
    gc_exponent : float option;
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
       leaves its exponents unresolved. *)
    {
      ns;
      tail;
      gc;
      tail_exponent = Growth.exponent tail;
      gc_exponent = Growth.exponent gc;
    }

  let render r =
    let cell spaces n =
      match List.assoc_opt n spaces with
      | Some s -> string_of_int s
      | None -> "-"
    in
    Table.section "E7 / §1: pure CPS needs bounded space only if properly tail recursive"
    ^ Table.render
        ~header:("variant" :: List.map string_of_int r.ns @ [ "p" ])
        [
          ("tail" :: List.map (cell r.tail) r.ns) @ [ Growth.show r.tail_exponent ];
          ("gc" :: List.map (cell r.gc) r.ns) @ [ Growth.show r.gc_exponent ];
        ]
end

(* ------------------------------------------------------------------ *)

module Ablation = struct
  type sweep = {
    label : string;
    spaces : (int * int) list;
    exponent : float option;
  }

  type result = {
    ns : int list;
    return_env_rows : sweep list;
    return_env_verdicts : verdict list;
    evlis_rows : sweep list;
    evlis_verdicts : verdict list;
  }

  let default_ns = [ 20; 40; 80; 160; 320 ]

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
      let spaces = Runner.spaces ms in
      { label; spaces; exponent = Growth.exponent spaces }
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
    let separates reading x y x_sweep y_sweep =
      separation
        (Printf.sprintf "%s: S_%s separates from S_%s" reading x y)
        x_sweep.exponent y_sweep.exponent
    in
    {
      ns;
      return_env_rows = [ gc_f; stack_f; gc_l; stack_l ];
      return_env_verdicts =
        [
          separates "faithful" "stack" "gc" stack_f gc_f;
          separates "literal" "stack" "gc" stack_l gc_l;
        ];
      evlis_rows = [ tail_e; evlis_f; evlis_l ];
      evlis_verdicts =
        [
          separates "faithful" "tail" "evlis" tail_e evlis_f;
          separates "literal" "tail" "evlis" tail_e evlis_l;
        ];
    }

  let render r =
    let table rows verdicts =
      Table.render
        ~header:("S(P,N)" :: List.map string_of_int r.ns @ [ "p" ])
        (List.map
           (fun s ->
             s.label
             :: List.map
                  (fun n ->
                    match List.assoc_opt n s.spaces with
                    | Some v -> string_of_int v
                    | None -> "stuck")
                  r.ns
             @ [ Growth.show s.exponent ])
           rows)
      ^ String.concat ""
          (List.map
             (fun v ->
               Printf.sprintf "  [%s] %s  (%s)\n"
                 (if v.holds then "yes" else "no")
                 v.claim (versus v))
             verdicts)
    in
    Table.section
      "E8 / ablation: literal readings of two ambiguous rules break Theorem 25"
    ^ "
return frames (separator stack/gc):
"
    ^ table r.return_env_rows r.return_env_verdicts
    ^ "The separation needs frames that do not capture the caller's\n\
       register environment.\n"
    ^ "
evlis and nullary calls (separator tail/evlis):
"
    ^ table r.evlis_rows r.evlis_verdicts
    ^ "Evlis must drop the environment when a frame is created with no\n\
       remaining subexpressions.\n"
end

(* ------------------------------------------------------------------ *)

module Sanity = struct
  module Secd = Tailspace_engines.Secd

  type cell = {
    program : string;
    failed : bool;
    engine_exponent : float option;
    tail_exponent : float option;
  }

  type row = {
    engine : string;
    cells : cell list;
    properly_tail_recursive : bool;
  }

  type result = { ns : int list; rows : row list }

  let default_ns = [ 32; 64; 128; 256 ]

  (* iteration-shaped programs the SECD subset can run (no prelude, no
     call/cc); on the three loops S_tail is bounded, so a frame leaked
     per call separates the implementation from it *)
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

  (* Definition 5 on one program: both sweeps answered, both exponents
     resolved, and the implementation does not separate from S_tail. *)
  let passes c =
    (not c.failed)
    && c.engine_exponent <> None
    && c.tail_exponent <> None
    && not (Growth.separates c.engine_exponent c.tail_exponent)

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
                {
                  program = name;
                  failed =
                    List.length engine_points < List.length ns
                    || List.length tails < List.length ns;
                  engine_exponent = Growth.exponent engine_points;
                  tail_exponent = Growth.exponent tails;
                })
              programs
          in
          {
            engine;
            cells;
            properly_tail_recursive = List.for_all passes cells;
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
                    if c.failed then "failed"
                    else
                      Printf.sprintf "%s vs %s"
                        (Growth.show c.engine_exponent)
                        (Growth.show c.tail_exponent))
                  row.cells
             @ [
                 (if row.properly_tail_recursive then "properly tail recursive"
                  else "SPACE LEAK");
               ])
           r.rows)
    ^ "cells: growth exponent p of the implementation's live space vs S_tail's.\n"
    ^ "An implementation is flagged when it separates from S_tail (p >= p_tail\n"
    ^ "+ 0.5) on some program (Definition 5), or a run fails. The tail-recursive\n"
    ^ "SECD machine passes; the classic SECD machine and I_gc leak a frame per\n"
    ^ "call, as \xc2\xa714 expects.\n"
end

(* ------------------------------------------------------------------ *)

module LogHier = struct
  (* Theorems 24/25/26 are stated for the flat and linked models; the
     logarithmic model re-prices every linked unit at ceil(log2 |store|)
     bits, a factor that itself grows with the live store. This
     experiment re-runs each separation with all three models measured
     and reports, per strict inclusion, whether Log_x still separates
     from Log_y: a pointer-size factor of O(log S) cannot close a
     polynomial gap. The flat separations are E2's. *)

  type result = {
    ns : int list;
    pairs : verdict list;
    chain_rows : (string * bool) list;
        (** Theorem 24's pointwise chain re-checked on Log consumption *)
    pk_ns : int list;
    thm26 : verdict;  (** S_sfs against Log_tail on P_N *)
  }

  (* Every point measures Linked and Log, whose walk runs on every step:
     at N = 320 the four pairs would take about half a minute. *)
  let default_ns = [ 20; 40; 80; 160 ]

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
          let exponent v = Growth.exponent (spaces_of Space_model.Log sep v) in
          separation sep (exponent x) (exponent y))
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
       U_tail (E4); under the log model the tail side is re-priced to
       Log_tail (bit-units: an exponent does not depend on the unit). *)
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
    let thm26 =
      separation "thm26 sfs(flat)/tail"
        (Growth.exponent (Runner.spaces (List.map snd pk)))
        (Growth.exponent (Runner.spaces_for Space_model.Log (List.map fst pk)))
    in
    { ns; pairs; chain_rows; pk_ns; thm26 }

  let render r =
    Table.section
      "E10 / log model: the space hierarchy under pointer-size accounting"
    ^ Table.render
        ~header:[ "separation"; "p_x"; "p_y"; "under Log" ]
        (List.map
           (fun v ->
             [
               v.claim;
               Growth.show v.x;
               Growth.show v.y;
               (if v.holds then "survives" else "COLLAPSES");
             ])
           (r.pairs @ [ r.thm26 ]))
    ^ Printf.sprintf "Theorem 24 chain on Log consumption: %s\n"
        (String.concat ", "
           (List.map
              (fun (name, ok) ->
                Printf.sprintf "%s %s" name (if ok then "ok" else "VIOLATED"))
              r.chain_rows))
    ^ "p: growth exponent of Log_x and Log_y (thm26: flat S_sfs and Log_tail)\n\
       over the top doubling; a separation survives when p_x >= p_y + 0.5.\n\
       Log re-prices every linked unit at ceil(log2 |store|) bits, a factor\n\
       that cannot close a polynomial gap.\n"
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
