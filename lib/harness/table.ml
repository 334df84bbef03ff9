let is_numeric s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | '.' | '-' | '+' | '%' | 'e' -> true | _ -> false)
       s

let render ~header rows =
  let all = header :: rows in
  let columns =
    List.fold_left (fun acc row -> Stdlib.max acc (List.length row)) 0 all
  in
  let widths = Array.make columns 0 in
  List.iter
    (List.iteri (fun i cell ->
         widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
    all;
  let buf = Buffer.create 256 in
  let pad i cell =
    let w = widths.(i) in
    let s = String.length cell in
    if s >= w then cell
    else if is_numeric cell then String.make (w - s) ' ' ^ cell
    else cell ^ String.make (w - s) ' '
  in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  Buffer.add_string buf
    (String.concat "  "
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let section title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.sprintf "\n%s\n| %s |\n%s\n" bar title bar

let measurements ms =
  let status_text (m : Runner.measurement) =
    match m.Runner.status with
    | Runner.Answer a ->
        if String.length a > 24 then String.sub a 0 21 ^ "..." else a
    | Runner.Stuck _ -> "stuck"
    | Runner.Aborted r -> Runner.Resilience.abort_reason_name r
  in
  (* A model gets a column if any point measured it. *)
  let module SM = Tailspace_core.Space_model in
  let has model =
    List.exists
      (fun (m : Runner.measurement) -> Runner.consumption m model <> None)
      ms
  in
  let has_linked = has SM.Linked and has_log = has SM.Log in
  let model_cell m model =
    match Runner.consumption m model with
    | Some c -> string_of_int c
    | None -> "-"
  in
  let header =
    [ "n"; "S=|P|+peak"; "peak"; "gc-runs"; "steps" ]
    @ (if has_linked then [ "U (linked)" ] else [])
    @ (if has_log then [ "L (log bits)" ] else [])
    @ [ "answer" ]
  in
  let row (m : Runner.measurement) =
    [
      string_of_int m.Runner.n;
      string_of_int m.Runner.space;
      string_of_int (Runner.peak_space m);
      string_of_int m.Runner.gc_runs;
      string_of_int m.Runner.steps;
    ]
    @ (if has_linked then [ model_cell m SM.Linked ] else [])
    @ (if has_log then [ model_cell m SM.Log ] else [])
    @ [ status_text m ]
  in
  render ~header (List.map row ms)

module P = Tailspace_provenance.Provenance

let census (c : P.t) =
  let pct words =
    if c.P.peak = 0 then "-"
    else Printf.sprintf "%.1f%%" (100. *. float_of_int words /. float_of_int c.P.peak)
  in
  let retainers (r : P.row) =
    match r.P.retained_by with
    | [] -> ""
    | roots ->
        String.concat ","
          (List.map (fun (s, ph) -> P.label_of c s ph) roots)
  in
  let row (r : P.row) =
    [
      (if r.P.site >= 0 then string_of_int r.P.site else "-");
      P.phase_name r.P.phase;
      string_of_int r.P.words;
      pct r.P.words;
      (if r.P.cells > 0 then string_of_int r.P.cells else "-");
      P.label_of c r.P.site r.P.phase;
      retainers r;
    ]
  in
  let unit = P.unit_name c.P.measure in
  Printf.sprintf "%s census: peak %s\n"
    (P.measure_name c.P.measure)
    (P.humanize_words ~unit c.P.peak)
  ^ render
      ~header:[ "site"; "phase"; unit; "peak%"; "cells"; "label"; "retained-by" ]
      (List.map row c.P.rows)

let census_diff ~label_a ~label_b (deltas : P.delta list) =
  let row (d : P.delta) =
    let delta = d.P.words_b - d.P.words_a in
    let rel =
      if d.P.words_a = 0 then (if d.P.words_b = 0 then "0%" else "new")
      else
        Printf.sprintf "%+.1f%%" (P.percent_delta ~from:d.P.words_a ~to_:d.P.words_b)
    in
    [
      (if d.P.dsite >= 0 then string_of_int d.P.dsite else "-");
      P.phase_name d.P.dphase;
      string_of_int d.P.words_a;
      string_of_int d.P.words_b;
      Printf.sprintf "%+d" delta;
      rel;
      d.P.dlabel;
    ]
  in
  render
    ~header:[ "site"; "phase"; label_a; label_b; "delta"; "rel"; "label" ]
    (List.map row deltas)
