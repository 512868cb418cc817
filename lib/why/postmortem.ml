module J = San_util.Json
module Trace = San_obs.Trace

type t = {
  note : string;
  epoch : int option;
  records : Trace.record list;
  entries : (int * Why.entry) list;
  dropped_bytes : int;
}

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    (* The writer ends every line with a newline, so bytes after the
       last one are a line it never finished — what a crash or a cut
       copy leaves. Drop them and say how many went. *)
    let complete =
      match String.rindex_opt text '\n' with None -> 0 | Some i -> i + 1
    in
    let note = ref "" and epoch = ref None in
    let records = ref [] and entries = ref [] in
    let parse lineno line =
      let fail what = Error (Printf.sprintf "line %d: %s" lineno what) in
      if String.trim line = "" then Ok ()
      else
        match J.of_string line with
        | Error e -> fail e
        | Ok j -> (
          match Option.bind (J.member "rec" j) J.to_str with
          | Some "flight" ->
            note :=
              Option.value ~default:""
                (Option.bind (J.member "note" j) J.to_str);
            epoch := Option.bind (J.member "epoch" j) J.to_int;
            Ok ()
          | Some "trace" -> (
            match Option.bind (J.member "record" j) Trace.record_of_json with
            | Some r ->
              records := r :: !records;
              Ok ()
            | None -> fail "bad trace record")
          | Some "why" -> (
            match Option.bind (J.member "entry" j) Why.entry_of_json with
            | Some e ->
              entries := e :: !entries;
              Ok ()
            | None -> fail "bad ledger entry")
          | _ -> fail "unknown record")
    in
    let rec go lineno = function
      | [] -> Ok ()
      | line :: rest ->
        Result.bind (parse lineno line) (fun () -> go (lineno + 1) rest)
    in
    match go 1 (String.split_on_char '\n' (String.sub text 0 complete)) with
    | Error _ as e -> e
    | Ok () ->
      Ok
        {
          note = !note;
          epoch = !epoch;
          records = List.rev !records;
          entries = List.rev !entries;
          dropped_bytes = String.length text - complete;
        })

let open_alerts t =
  let open_ = Hashtbl.create 8 in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Trace.Alert_raised { name; epoch } -> Hashtbl.replace open_ name epoch
      | Trace.Alert_cleared { name; _ } -> Hashtbl.remove open_ name
      | _ -> ())
    t.records;
  List.sort compare (Hashtbl.fold (fun n e acc -> (n, e) :: acc) open_ [])

let timeline t =
  List.filter_map
    (fun (r : Trace.record) ->
      let line fmt = Printf.ksprintf Option.some fmt in
      match r.Trace.event with
      | Trace.Epoch_started { name; discrepancies } ->
        line "verify sweep: %s (%d discrepancies)" name discrepancies
      | Trace.Daemon_transition { epoch; from_; to_ } ->
        line "epoch %d: %s -> %s" epoch from_ to_
      | Trace.Daemon_epoch { epoch; verdict; leader; covered; total } ->
        line "epoch %d closed: %s under %s, coverage %d/%d" epoch verdict
          leader covered total
      | Trace.Alert_raised { name; epoch } ->
        line "epoch %d: alert %s RAISED" epoch name
      | Trace.Alert_cleared { name; epoch } ->
        line "epoch %d: alert %s cleared" epoch name
      | Trace.Mapper_stuck { at_ns; pending } ->
        line "FATAL: election co-simulation stuck at %.0f ns (%d mappers \
              pending)" at_ns pending
      | Trace.Mark { name; note } -> line "mark %s: %s" name note
      | _ -> None)
    t.records

let pp ppf t =
  Format.fprintf ppf "flight recording: %s%s@."
    (if t.note = "" then "(no note)" else t.note)
    (match t.epoch with
    | Some e -> Printf.sprintf " (epoch %d)" e
    | None -> "");
  Format.fprintf ppf "%d trace events, %d ledger entries@."
    (List.length t.records) (List.length t.entries);
  if t.dropped_bytes > 0 then
    Format.fprintf ppf "cut recording: dropped %d bytes of an unfinished last \
                        line@." t.dropped_bytes;
  (match timeline t with
  | [] -> Format.fprintf ppf "timeline: empty@."
  | lines ->
    Format.fprintf ppf "timeline:@.";
    List.iter (fun l -> Format.fprintf ppf "  %s@." l) lines);
  (match open_alerts t with
  | [] -> Format.fprintf ppf "open alerts: none@."
  | alerts ->
    Format.fprintf ppf "open alerts:@.";
    List.iter
      (fun (n, e) -> Format.fprintf ppf "  %s (raised epoch %d)@." n e)
      alerts);
  let deductions =
    List.filter
      (fun (_, e) -> match e with Why.Deduced _ -> true | _ -> false)
      t.entries
  in
  match deductions with
  | [] -> Format.fprintf ppf "last deductions: none recorded@."
  | l ->
    let n = List.length l in
    let last = if n > 8 then List.filteri (fun i _ -> i >= n - 8) l else l in
    Format.fprintf ppf "last deductions (%d of %d):@." (List.length last) n;
    List.iter (fun e -> Format.fprintf ppf "  %a@." Why.pp_entry e) last
