module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Tail_calls = Tailspace_analysis.Tail_calls
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families
module Expand = Tailspace_expander.Expand
module Pool = Tailspace_parallel.Pool

let pct = Tail_calls.percent
let ( let+ ) = Runner.( let+ )
let ( and+ ) = Runner.( and+ )

(* Every measuring experiment below is a grid (see Runner): the points
   it measures, and its result as a function of their measurements. The
   report measures the union of the grids it prints, each distinct point
   once, so a table reads the same figures alone or in [report all]. *)

let variant_column variants = List.map Machine.variant_name variants

(* A point on one variant, every other knob at its default. *)
let on ?models ?fuel variant source n =
  Runner.point ~config:(Machine.Config.make ~variant ()) ?models ?fuel source n

(* The figure of one point under [model]: its consumption if it answered
   ([Runner.answered]). *)
let figure ?(model = Space_model.Flat) p =
  let+ m = Runner.one p in
  Runner.answered m model

(* A table cell: a figure, or "-" for a point that got stuck or ran out
   of fuel. *)
let cell = function Some s -> string_of_int s | None -> "-"

(* ------------------------------------------------------------------ *)
(* Verdicts.                                                            *)

type ruling = Holds | Fails | Unresolved

(* The one verdict renderer. A verdict that fails only for want of a
   figure or an exponent reads "unresolved", never the negative finding
   [no]. *)
let word ~yes ~no = function
  | Holds -> yes
  | Fails -> no
  | Unresolved -> "unresolved"

(* [Unresolved] when either side is missing, else [holds] decides. *)
let rule x y holds =
  if Option.is_none x || Option.is_none y then Unresolved
  else if holds then Holds
  else Fails

(* A conjunction: it fails on any resolved failure, and holds only when
   every part holds. *)
let every rulings =
  if List.mem Fails rulings then Fails
  else if List.for_all (( = ) Holds) rulings then Holds
  else Unresolved

(* Every verdict below is one comparison of two growth exponents
   ([Growth.separates]): S_x separates from S_y when its increments over
   the top doubling grow at least half a class faster. A verdict keeps
   both exponents, so the report shows what it was decided on. *)
type verdict = {
  claim : string;
  x : float option;
  y : float option;
  ruling : ruling;
}

let separation claim x y = { claim; x; y; ruling = rule x y (Growth.separates x y) }
let versus v = Printf.sprintf "%s vs %s" (Growth.show v.x) (Growth.show v.y)

(* ------------------------------------------------------------------ *)
(* Series.                                                              *)

type series = {
  label : string list;
  figures : (int * int option) list;
  exponent : float option;
}

let series_of label figures =
  let answered =
    List.filter_map (fun (n, f) -> Option.map (fun f -> (n, f)) f) figures
  in
  {
    label;
    figures;
    exponent = Growth.exponent_over (List.map fst figures) answered;
  }

(* A series over [ns], reading [at n]'s figure at each N. *)
let series label ns at =
  let+ figures =
    Runner.all
      (List.map
         (fun n ->
           let+ f = at n in
           (n, f))
         ns)
  in
  series_of label figures

(* One row per series: its label cells, a figure or "-" per N, and its
   exponent, under the label columns' [header]. *)
let series_table ~header series =
  let ns = match series with s :: _ -> List.map fst s.figures | [] -> [] in
  Table.render
    ~header:(header @ List.map string_of_int ns @ [ "p" ])
    (List.map
       (fun s ->
         s.label
         @ List.map (fun (_, f) -> cell f) s.figures
         @ [ Growth.show s.exponent ])
       series)

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
  let default_ns = [ 20; 40; 80; 160; 320 ]

  let grid ?(ns = default_ns) ?fuel () =
    Runner.all
      (List.map
         (fun (name, source) ->
           let+ rows =
             Runner.all
               (List.map
                  (fun variant ->
                    series
                      [ Machine.variant_name variant ]
                      ns
                      (fun n -> figure (on ?fuel variant source n)))
                  Machine.all_variants)
           in
           (name, rows))
         Families.separators)

  let claims sweeps =
    let exponent name v =
      let label = [ Machine.variant_name v ] in
      (List.find (fun s -> s.label = label) (List.assoc name sweeps)).exponent
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
        ruling = rule tail (Some 0.) (Growth.bounded tail);
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
      (fun (name, rows) ->
        Buffer.add_string buf (Printf.sprintf "\nseparator %s:\n" name);
        Buffer.add_string buf (series_table ~header:[ "variant" ] rows))
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
             (word ~yes:"ok" ~no:"FAIL" v.ruling)
             v.claim (versus v)))
      (claims sweeps);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

(* The corpus entries E3 and E6 run, each at its first checked input. *)
let checked_entries =
  List.filter_map
    (fun (e : Corpus.entry) ->
      match e.checks with
      | (n, _) :: _ when not e.slow -> Some (e, n)
      | _ -> None)
    Corpus.all

module Thm24 = struct
  type row = {
    name : string;
    n : int;
    s : (Machine.variant * int) list;
    chain : ruling;
  }

  (* [s] holds the figures of the variants that answered: a missing
     figure leaves its inequalities unresolved. *)
  let chain s =
    let le x y =
      match (List.assoc_opt x s, List.assoc_opt y s) with
      | Some a, Some b -> if a <= b then Holds else Fails
      | _ -> Unresolved
    in
    every
      [
        le Machine.Tail Machine.Gc;
        le Machine.Gc Machine.Stack;
        le Machine.Sfs Machine.Evlis;
        le Machine.Evlis Machine.Tail;
        le Machine.Sfs Machine.Free;
        le Machine.Free Machine.Tail;
      ]

  (* The figures of the variants whose point [at v] answered. *)
  let answered ?model at =
    let+ figures =
      Runner.all
        (List.map
           (fun v ->
             let+ f = figure ?model (at v) in
             Option.map (fun f -> (v, f)) f)
           Machine.all_variants)
    in
    List.filter_map Fun.id figures

  let grid () =
    Runner.all
      (List.map
         (fun ((e : Corpus.entry), n) ->
           let+ s = answered (fun v -> on v e.source n) in
           { name = e.name; n; s; chain = chain s })
         checked_entries)

  let render rows =
    Table.section
      "E3 / Theorem 24: pointwise S_sfs <= {S_evlis, S_free} <= S_tail <= \
       S_gc <= S_stack"
    ^ Table.render
        ~header:("program" :: "N" :: variant_column Machine.all_variants @ [ "chain" ])
        (List.map
           (fun r ->
             r.name :: string_of_int r.n
             :: List.map
                  (fun v -> cell (List.assoc_opt v r.s))
                  Machine.all_variants
             @ [ word ~yes:"ok" ~no:"VIOLATED" r.chain ])
           rows)
end

(* ------------------------------------------------------------------ *)

module Thm26 = struct
  type result = { u_tail : series; s_tail : series; s_sfs : series }

  let default_ns = [ 10; 20; 40; 80 ]

  let grid ?(ns = default_ns) ?fuel () =
    let tail n =
      on ~models:[ Space_model.Flat; Space_model.Linked ] ?fuel Machine.Tail
        (Families.pk_program n) n
    in
    let+ u_tail =
      series [ "U_tail(P_N,N)" ] ns (fun n ->
          figure ~model:Space_model.Linked (tail n))
    and+ s_tail = series [ "S_tail(P_N,N)" ] ns (fun n -> figure (tail n))
    and+ s_sfs =
      series [ "S_sfs(P_N,N)" ] ns (fun n ->
          figure (on ?fuel Machine.Sfs (Families.pk_program n) n))
    in
    { u_tail; s_tail; s_sfs }

  let render r =
    let columns = [ r.u_tail; r.s_tail; r.s_sfs ] in
    let sfs = r.s_sfs.exponent and u_tail = r.u_tail.exponent in
    Table.section
      "E4 / Theorem 26 + Figure 8: flat vs linked environments on P_N"
    ^ Table.render
        ~header:("N" :: List.concat_map (fun s -> s.label) columns)
        (List.map
           (fun (n, _) ->
             string_of_int n
             :: List.map (fun s -> cell (List.assoc n s.figures)) columns)
           r.u_tail.figures)
    ^ Printf.sprintf
        "S_sfs %s from U_tail  (p = %s vs %s; paper: O(N^2) vs O(N log N))\n"
        (word ~yes:"separates" ~no:"does NOT separate"
           (rule sfs u_tail (Growth.separates sfs u_tail)))
        (Growth.show sfs) (Growth.show u_tail)
end

(* ------------------------------------------------------------------ *)

module Sec4 = struct
  let default_ns = [ 24; 48; 96; 192 ]

  let grid ?(ns = default_ns) () =
    Runner.all
      (List.concat_map
         (fun (spine, traverse, build) ->
           List.map
             (fun variant ->
               series
                 [ spine; Machine.variant_name variant ]
                 ns
                 (fun n ->
                   let+ t = figure (on variant traverse n)
                   and+ b = figure (on variant build n) in
                   match (t, b) with Some t, Some b -> Some (t - b) | _ -> None))
             [ Machine.Tail; Machine.Gc; Machine.Stack ])
         [
           ( "right",
             Families.find_leftmost_right_traverse,
             Families.find_leftmost_right_build );
           ( "left",
             Families.find_leftmost_left_traverse,
             Families.find_leftmost_left_build );
         ])

  let render rows =
    Table.section
      "E5 / §4: find-leftmost traversal overhead (S_traverse - S_build)"
    ^ series_table ~header:[ "spine"; "variant" ] rows
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

  let grid () =
    Runner.all
      (List.map
         (fun ((e : Corpus.entry), n) ->
           let+ ms =
             Runner.all
               (List.map
                  (fun v -> Runner.one (on v e.source n))
                  Machine.all_variants)
           in
           let answers =
             List.map2
               (fun v (m : Runner.measurement) ->
                 ( v,
                   match m.status with
                   | Runner.Answer a -> a
                   | Runner.Stuck s -> "stuck: " ^ s
                   | Runner.Aborted r -> Runner.Resilience.abort_reason_name r ))
               Machine.all_variants ms
           in
           let agree =
             match answers with
             | (_, first) :: rest ->
                 List.for_all (fun (_, a) -> String.equal a first) rest
             | [] -> true
           in
           { name = e.name; n; answers; agree })
         checked_entries)

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
  let default_ns = [ 32; 64; 128; 256 ]

  let grid ?(ns = default_ns) ?fuel () =
    Runner.all
      (List.map
         (fun variant ->
           series
             [ Machine.variant_name variant ]
             ns
             (fun n -> figure (on ?fuel variant Families.cps_loop n)))
         [ Machine.Tail; Machine.Gc ])

  let render rows =
    Table.section "E7 / §1: pure CPS needs bounded space only if properly tail recursive"
    ^ series_table ~header:[ "variant" ] rows
end

(* ------------------------------------------------------------------ *)

module Ablation = struct
  type result = {
    return_env_rows : series list;
    return_env_verdicts : verdict list;
    evlis_rows : series list;
    evlis_verdicts : verdict list;
  }

  let default_ns = [ 20; 40; 80; 160; 320 ]

  let grid ?(ns = default_ns) () =
    let sweep ?return_env ?evlis_drop_at_creation ~variant label source =
      let config =
        Machine.Config.make ?return_env ?evlis_drop_at_creation ~variant ()
      in
      series [ label ] ns (fun n -> figure (Runner.point ~config source n))
    in
    let+ gc_f =
      sweep ~variant:Machine.Gc "gc, closure-env frames (faithful)"
        Families.separator_stack_gc
    and+ stack_f =
      sweep ~variant:Machine.Stack "stack, closure-env frames (faithful)"
        Families.separator_stack_gc
    and+ gc_l =
      sweep ~return_env:Machine.Register_env ~variant:Machine.Gc
        "gc, register-env frames (literal)" Families.separator_stack_gc
    and+ stack_l =
      sweep ~return_env:Machine.Register_env ~variant:Machine.Stack
        "stack, register-env frames (literal)" Families.separator_stack_gc
    and+ tail_e =
      sweep ~variant:Machine.Tail "tail (unaffected)"
        Families.separator_tail_evlis
    and+ evlis_f =
      sweep ~variant:Machine.Evlis "evlis, drop at creation (faithful)"
        Families.separator_tail_evlis
    and+ evlis_l =
      sweep ~evlis_drop_at_creation:false ~variant:Machine.Evlis
        "evlis, printed rules only (literal)" Families.separator_tail_evlis
    in
    let separates reading x y x_sweep y_sweep =
      separation
        (Printf.sprintf "%s: S_%s separates from S_%s" reading x y)
        x_sweep.exponent y_sweep.exponent
    in
    {
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
      series_table ~header:[ "S(P,N)" ] rows
      ^ String.concat ""
          (List.map
             (fun v ->
               Printf.sprintf "  [%s] %s  (%s)\n"
                 (word ~yes:"yes" ~no:"no" v.ruling)
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

  type row = {
    engine : string;
    cells : (series * series) list;
    verdict : ruling;
  }

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

  (* The battery's series on one reference machine. *)
  let machine variant ns =
    Runner.all
      (List.map
         (fun (name, source) ->
           series [ name ] ns (fun n -> figure (on variant source n)))
         battery)

  (* The SECD machines' series, from one fan-out over both machines:
     they are not reference machines, so their runs are no grid points.
     [secd ?pool ns proper] is one machine's series. *)
  let secd ?pool ns =
    let programs =
      List.map (fun (name, source) -> (name, Expand.program_of_string source)) battery
    in
    let runs =
      List.concat_map
        (fun proper ->
          List.concat_map
            (fun (name, _) -> List.map (fun n -> (proper, name, n)) ns)
            battery)
        [ true; false ]
    in
    let peaks =
      Pool.map ?pool
        (fun (proper, name, n) ->
          let r =
            Secd.run_program ~proper_tail_calls:proper
              ~program:(List.assoc name programs) ~input:(Runner.input_expr n)
              ()
          in
          match r.Secd.outcome with
          | Secd.Done _ -> Some r.Secd.peak_words
          | Secd.Error _ | Secd.Aborted _ -> None)
        runs
    in
    let peak = List.combine runs peaks in
    fun proper ->
      List.map
        (fun (name, _) ->
          series_of [ name ]
            (List.map (fun n -> (n, List.assoc (proper, name, n) peak)) ns))
        battery

  (* Definition 5 on one program: the implementation does not separate
     from S_tail, decided only when both exponents are resolved. *)
  let passes (e, t) =
    rule e.exponent t.exponent (not (Growth.separates e.exponent t.exponent))

  let grid ?pool ?(ns = default_ns) () =
    let+ tail = machine Machine.Tail ns and+ control = machine Machine.Gc ns in
    let row engine series =
      let cells = List.combine series tail in
      { engine; cells; verdict = every (List.map passes cells) }
    in
    let secd = secd ?pool ns in
    [
      row "secd (tail-recursive)" (secd true);
      row "secd (classic)" (secd false);
      row "reference I_gc (control)" control;
    ]

  let failed s = List.exists (fun (_, f) -> f = None) s.figures

  let render rows =
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
                  (fun (e, t) ->
                    if failed e || failed t then "failed"
                    else
                      Printf.sprintf "%s vs %s" (Growth.show e.exponent)
                        (Growth.show t.exponent))
                  row.cells
             @ [
                 word ~yes:"properly tail recursive" ~no:"SPACE LEAK"
                   row.verdict;
               ])
           rows)
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
    pairs : verdict list;
    chain_rows : (string * ruling) list;
    thm26 : verdict;
  }

  (* Every point measures Linked and Log, whose walk runs on every step:
     at N = 320 the four pairs would take about half a minute. *)
  let default_ns = [ 20; 40; 80; 160 ]

  (* Each separator family with the pair of variants its strict
     inclusion compares (Theorem 25's four adjacent separations). Only
     those two variants are measured: the per-step linked walk the heavy
     models force makes a full six-variant sweep needlessly slow. *)
  let separations =
    [
      ("stack/gc", Machine.Stack, Machine.Gc);
      ("gc/tail", Machine.Gc, Machine.Tail);
      ("tail/evlis", Machine.Tail, Machine.Evlis);
      ("evlis/sfs", Machine.Evlis, Machine.Sfs);
    ]

  let all_models = [ Space_model.Flat; Space_model.Linked; Space_model.Log ]

  let grid ?(ns = default_ns) ?fuel () =
    let on = on ~models:all_models ?fuel in
    let log_series ns at =
      series [] ns (fun n -> figure ~model:Space_model.Log (at n))
    in
    let+ pairs =
      Runner.all
        (List.map
           (fun (sep, x, y) ->
             let source = List.assoc sep Families.separators in
             let+ sx = log_series ns (on x source)
             and+ sy = log_series ns (on y source) in
             separation sep sx.exponent sy.exponent)
           separations)
    (* Theorem 24's chain, re-checked pointwise on Log consumption. It
       is not implied by the flat chain: the pointer-size factor is a
       function of each variant's own store, so two variants' log
       figures are scaled by different factors. *)
    and+ chain_rows =
      Runner.all
        (List.filter_map
           (fun name ->
             match Corpus.find name with
             | Some { Corpus.source; checks = (n, _) :: _; _ } ->
                 Some
                   (let+ s =
                      Thm24.answered ~model:Space_model.Log (fun v ->
                          on v source n)
                    in
                    (name, Thm24.chain s))
             | _ -> None)
           [ "countdown"; "fib-iter"; "even-odd" ])
    (* Theorem 26 on P_N: the paper separates flat S_sfs from linked
       U_tail (E4); under the log model the tail side is re-priced to
       Log_tail (bit-units: an exponent does not depend on the unit). *)
    and+ thm26 =
      let pk_ns = Thm26.default_ns in
      let+ sfs =
        series [] pk_ns (fun n ->
            figure (on Machine.Sfs (Families.pk_program n) n))
      and+ tail =
        log_series pk_ns (fun n -> on Machine.Tail (Families.pk_program n) n)
      in
      separation "thm26 sfs(flat)/tail" sfs.exponent tail.exponent
    in
    { pairs; chain_rows; thm26 }

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
               word ~yes:"survives" ~no:"COLLAPSES" v.ruling;
             ])
           (r.pairs @ [ r.thm26 ]))
    ^ Printf.sprintf "Theorem 24 chain on Log consumption: %s\n"
        (String.concat ", "
           (List.map
              (fun (name, chain) ->
                Printf.sprintf "%s %s" name (word ~yes:"ok" ~no:"VIOLATED" chain))
              r.chain_rows))
    ^ "p: growth exponent of Log_x and Log_y (thm26: flat S_sfs and Log_tail)\n\
       over the top doubling; a separation survives when p_x >= p_y + 0.5.\n\
       Log re-prices every linked unit at ceil(log2 |store|) bits, a factor\n\
       that cannot close a polynomial gap.\n"
end

(* ------------------------------------------------------------------ *)

(* Every table as a grid of its printed text. *)
let tables ?pool () =
  [
    ("fig2", { Runner.points = []; read = (fun _ -> Fig2.render (Fig2.run ())) });
    ("thm25", Runner.map Thm25.render (Thm25.grid ()));
    ("thm24", Runner.map Thm24.render (Thm24.grid ()));
    ("thm26", Runner.map Thm26.render (Thm26.grid ()));
    ("sec4", Runner.map Sec4.render (Sec4.grid ()));
    ("cor20", Runner.map Cor20.render (Cor20.grid ()));
    ("cps", Runner.map Cps.render (Cps.grid ()));
    ("ablation", Runner.map Ablation.render (Ablation.grid ()));
    ("sanity", Runner.map Sanity.render (Sanity.grid ?pool ()));
    ("loghier", Runner.map LogHier.render (LogHier.grid ()));
  ]

let names = List.map fst (tables ())

let report ?pool names =
  let tables = tables ?pool () in
  Runner.run ?pool
    (Runner.map (String.concat "")
       (Runner.all (List.map (fun name -> List.assoc name tables) names)))
