(* Self-tests of the benchmark helpers: nearest-rank percentiles, span
   self-time subtraction, generator reproducibility and mix shares. *)

module Pct = Perfbench.Pct
module Spans = Perfbench.Spans
module Gen = Perfbench.Gen

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let test_nearest_rank () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  feq "p50 of 1..100" 50.0 (Pct.percentile a 0.5);
  feq "p99 of 1..100" 99.0 (Pct.percentile a 0.99);
  feq "p100 is the max" 100.0 (Pct.percentile a 1.0);
  feq "p0 is the min" 1.0 (Pct.percentile a 0.0);
  let b = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  feq "p99 of 1..1000 is rank 990" 990.0 (Pct.percentile b 0.99);
  feq "p50 of 1..1000 is rank 500" 500.0 (Pct.percentile b 0.5);
  Alcotest.(check int) "10 samples beyond p99 of 1000" 10 (Pct.beyond 1000 0.99);
  feq "single sample" 7.0 (Pct.percentile [| 7.0 |] 0.99);
  feq "median of an even count is the lower middle" 2.0 (Pct.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Pct.percentile [||] 0.5))

(* ------------------------------------------------------------------ *)
(* Span self time                                                      *)
(* ------------------------------------------------------------------ *)

let span id parent name start_ns end_ns = { Spans.id; parent; req = 0; name; start_ns; end_ns }
let self_of spans name =
  List.assoc name (List.map (fun (s, t) -> (s.Spans.name, t)) (Spans.self_times spans))

let test_self_nested () =
  (* root [0,100] > a [10,40] > b [20,30] *)
  let spans = [ span 0 (-1) "root" 0 100; span 1 0 "a" 10 40; span 2 1 "b" 20 30 ] in
  Alcotest.(check int) "root minus its child" 70 (self_of spans "root");
  Alcotest.(check int) "child minus grandchild" 20 (self_of spans "a");
  Alcotest.(check int) "leaf keeps all" 10 (self_of spans "b")

let test_self_siblings () =
  (* disjoint siblings subtract separately; overlapping ones count once;
     a child running past its parent is clipped to the parent *)
  let disjoint = [ span 0 (-1) "p" 0 100; span 1 0 "x" 0 10; span 2 0 "y" 50 70 ] in
  Alcotest.(check int) "disjoint siblings" 70 (self_of disjoint "p");
  let overlap = [ span 0 (-1) "p" 0 100; span 1 0 "x" 10 50; span 2 0 "y" 30 60 ] in
  Alcotest.(check int) "overlapping siblings counted once" 50 (self_of overlap "p");
  let clipped = [ span 0 (-1) "p" 0 100; span 1 0 "x" 90 130 ] in
  Alcotest.(check int) "child clipped to parent" 90 (self_of clipped "p")

let test_self_by_name () =
  let spans =
    [ span 0 (-1) "req" 0 50; span 1 0 "db" 10 20; span 2 (-1) "req" 100 130; span 3 2 "db" 100 130 ]
  in
  Alcotest.(check (list (pair string int))) "summed per name" [ ("db", 40); ("req", 40) ]
    (Spans.self_by_name spans)

let test_recorder () =
  let t = Spans.create () in
  Spans.set_request t 7;
  Spans.with_span t "outer" (fun () ->
      Spans.with_span t "inner" (fun () -> ());
      try Spans.with_span t "fails" (fun () -> failwith "x") with Failure _ -> ());
  let spans = Spans.spans t in
  let by name = List.find (fun s -> s.Spans.name = name) spans in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "outer is a root" (-1) (by "outer").Spans.parent;
  Alcotest.(check int) "inner's parent" (by "outer").Spans.id (by "inner").Spans.parent;
  Alcotest.(check int) "a raising span is closed under its parent" (by "outer").Spans.id
    (by "fails").Spans.parent;
  Alcotest.(check bool) "request id kept" true
    (List.for_all (fun (s : Spans.span) -> s.Spans.req = 7) spans);
  Alcotest.(check bool) "children inside the parent" true
    ((by "inner").Spans.start_ns >= (by "outer").Spans.start_ns
    && (by "inner").Spans.end_ns <= (by "outer").Spans.end_ns)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_reproducible () =
  let gen seed =
    ( Gen.records (Gen.rng seed 1) 500,
      Gen.rw_ops (Gen.rng seed 2) ~rows:100 2_000,
      Gen.doc_ops (Gen.rng seed 3) ~doc_rows:[| 60; 70 |] ~styles:3 ~ingest_lo:10 ~ingest_hi:20 500,
      Gen.keys (Gen.rng seed 4) ~n:1000 100 )
  in
  Alcotest.(check bool) "same seed, same inputs" true (gen 11 = gen 11);
  Alcotest.(check bool) "another seed, other inputs" false (gen 11 = gen 12);
  let a = Gen.rw_ops (Gen.rng 5 2) ~rows:100 4_000 and b = Gen.rw_ops (Gen.rng 5 2) ~rows:100 2_000 in
  Alcotest.(check bool) "a shorter script is a prefix of a longer one" true
    (Array.sub a 0 2_000 = b)

let test_spread () =
  let a = Gen.spread (Gen.rng 1 1) ~lo:50 ~hi:500 16 and b = Gen.spread (Gen.rng 2 1) ~lo:50 ~hi:500 16 in
  let sorted x = List.sort compare (Array.to_list x) in
  Alcotest.(check (list int)) "same sizes for every seed" (sorted a) (sorted b);
  Alcotest.(check int) "from lo" 50 (List.hd (sorted a));
  Alcotest.(check int) "to hi" 500 (List.nth (sorted a) 15);
  Alcotest.(check bool) "order depends on the seed" false (a = b)

(* a drawn share within [tol] of the configured one *)
let near ~tol what want got =
  Alcotest.(check bool) (Printf.sprintf "%s share %.4f ~ %.4f" what got want) true
    (Float.abs (got -. want) < tol)

let share count total = float_of_int count /. float_of_int total

let test_rw_mix () =
  let n = 200_000 and rows = 2_000 in
  let ops = Gen.rw_ops (Gen.rng 3 5) ~rows n in
  let count k = Array.fold_left (fun c op -> if Gen.rw_kind op = k then c + 1 else c) 0 ops in
  let near = near ~tol:0.005 in
  near "read" 0.90 (share (count "read") n);
  near "update" 0.07 (share (count "update") n);
  near "insert" 0.015 (share (count "insert") n);
  near "delete" 0.015 (share (count "delete") n);
  (* every update and delete targets a live row; inserts take fresh ids *)
  let live = Hashtbl.create rows in
  for id = 1 to rows do
    Hashtbl.replace live id ()
  done;
  let names = ref 0 and values = ref 0 in
  let ok =
    Array.for_all
      (function
        | Gen.Read -> true
        | Gen.Update_name (id, _) -> incr names; Hashtbl.mem live id
        | Gen.Update_value (id, _) -> incr values; Hashtbl.mem live id
        | Gen.Insert r ->
            let fresh = not (Hashtbl.mem live r.Gen.id) in
            Hashtbl.replace live r.Gen.id ();
            fresh
        | Gen.Delete id ->
            let present = Hashtbl.mem live id in
            Hashtbl.remove live id;
            present)
      ops
  in
  Alcotest.(check bool) "writes hit live rows, inserts fresh ids" true ok;
  Alcotest.(check bool) "updates alternate name and value" true (abs (!names - !values) <= 1);
  Alcotest.(check bool) "table size stays near its start" true
    (abs (Hashtbl.length live - rows) < rows / 4)

let test_doc_mix () =
  let n = 100_000 in
  let ops = Gen.doc_ops (Gen.rng 9 7) ~doc_rows:[| 50; 500; 120 |] ~styles:3 ~ingest_lo:10 ~ingest_hi:100 n in
  let count k = Array.fold_left (fun c op -> if Gen.doc_kind op = k then c + 1 else c) 0 ops in
  let near = near ~tol:0.006 in
  near "transform" 0.665 (share (count "transform") n);
  near "query" 0.285 (share (count "query") n);
  near "ingest" 0.05 (share (count "ingest") n);
  let in_range =
    Array.for_all
      (function
        | Gen.Transform { doc; style } -> doc >= 0 && doc < 3 && style >= 0 && style < 3
        | Gen.Query { doc; _ } -> doc >= 0 && doc < 3
        | Gen.Ingest _ -> true)
      ops
  in
  Alcotest.(check bool) "documents and stylesheets in range" true in_range

let test_pick () =
  let st = Gen.rng 1 1 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Gen.pick st [| 1; 0; 2 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  Alcotest.(check bool) "weights 1:2" true (Float.abs (share counts.(2) 30_000 -. (2.0 /. 3.0)) < 0.01)

let () =
  Alcotest.run "perfbench"
    [
      ("percentile", [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank ]);
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick test_self_nested;
          Alcotest.test_case "sibling self time" `Quick test_self_siblings;
          Alcotest.test_case "self time by name" `Quick test_self_by_name;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "generators",
        [
          Alcotest.test_case "reproducible per seed" `Quick test_reproducible;
          Alcotest.test_case "read_write mix" `Quick test_rw_mix;
          Alcotest.test_case "docs mix" `Quick test_doc_mix;
          Alcotest.test_case "weighted pick" `Quick test_pick;
          Alcotest.test_case "evenly spread sizes" `Quick test_spread;
        ] );
    ]
