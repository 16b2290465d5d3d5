(* In-memory span recorder for the traced run.  A span is one call into
   a layer's public entry point, made from the benchmark's own code:
   name, start, end, parent span and request id.  Spans stay in memory
   until the run ends.  (The program's own [Xdb_core.Trace] is the
   partial-evaluation trace, hence the different name.) *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  req : int;
  name : string;
  start_ns : int;
  end_ns : int;
}

type t = {
  mutable spans : span list;  (** finished spans, newest first *)
  mutable next : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable current_req : int;
}

let create () = { spans = []; next = 0; stack = []; current_req = 0 }
let set_request t req = t.current_req <- req

(* [with_span t name f] records [f ()] as a child of the innermost open
   span; the span is closed even when [f] raises. *)
let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_ns = Bclock.now_ns () in
  let finish () =
    let end_ns = Bclock.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; req = t.current_req; name; start_ns; end_ns } :: t.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans
let duration s = s.end_ns - s.start_ns

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match cur with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover.  Returned in the order of [spans]. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start_ns, s.end_ns))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s - covered ~lo:s.start_ns ~hi:s.end_ns kids))
    spans

(* Total self nanoseconds per span name, sorted by name. *)
let self_by_name spans =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let prev = try Hashtbl.find acc s.name with Not_found -> 0 in
      Hashtbl.replace acc s.name (prev + self))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let to_json s =
  Printf.sprintf {|{"id":%d,"parent":%d,"req":%d,"name":"%s","start_ns":%d,"end_ns":%d}|} s.id
    s.parent s.req (String.escaped s.name) s.start_ns s.end_ns
