(* Seeded input generators.  Every key, statement and document a run
   sends to the program comes from here, drawn from [--seed]; one seed
   always yields the same inputs.  [salt] separates the streams of one
   run so that adding a draw to one stream leaves the others unchanged. *)

let rng seed salt = Random.State.make [| seed; salt; 0x7e57 |]
let int st bound = Random.State.int st bound

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

(* One row of the records shape ([<row><id/><name/><value/><category/>]):
   the rows INSERT statements add, and the rows of ingested documents.
   The base tables come from [Xdb_xsltmark.Data]. *)
type record = { id : int; name : string; value : int; category : string }

let categories = [| "A"; "B"; "C"; "D"; "E" |]

let record st id =
  {
    id;
    name = Printf.sprintf "name%06d" (int st 1_000_000);
    value = int st 10_000;
    category = categories.(int st 5);
  }

let records st n = Array.init n (fun i -> record st (i + 1))

(* ------------------------------------------------------------------ *)
(* Operation mixes                                                     *)
(* ------------------------------------------------------------------ *)

(* Draw an index of [weights] with probability proportional to it. *)
let pick st weights =
  let total = Array.fold_left ( + ) 0 weights in
  let r = int st total in
  let rec go i acc = if r < acc + weights.(i) then i else go (i + 1) (acc + weights.(i)) in
  go 0 0

(* Uniform point-lookup keys over ids 1..n. *)
let keys st ~n count = Array.init count (fun _ -> 1 + int st n)

(* read_write: avts reads beside DML.  Updates alternate the rendered
   [name] column with the unrendered [value] column; inserts take fresh
   ids and deletes remove a live row, so every write changes exactly one
   row and the table size stays stable. *)
type rw_op =
  | Read
  | Update_name of int * string
  | Update_value of int * int
  | Insert of record
  | Delete of int

(* per-mille weights: read, update, insert, delete *)
let rw_weights = [| 900; 70; 15; 15 |]

let rw_ops st ~rows count =
  let live = Array.make (rows + count) 0 in
  for i = 0 to rows - 1 do
    live.(i) <- i + 1
  done;
  let nlive = ref rows and next_id = ref (rows + 1) and updates = ref 0 in
  let live_id () = live.(int st !nlive) in
  Array.init count (fun _ ->
      match pick st rw_weights with
      | 0 -> Read
      | 1 ->
          incr updates;
          let id = live_id () in
          if !updates land 1 = 1 then Update_name (id, Printf.sprintf "upd%07d" (int st 10_000_000))
          else Update_value (id, int st 10_000)
      | 2 ->
          let r = record st !next_id in
          incr next_id;
          live.(!nlive) <- r.id;
          incr nlive;
          Insert r
      | _ ->
          let i = int st !nlive in
          let id = live.(i) in
          decr nlive;
          live.(i) <- live.(!nlive);
          Delete id)

let rw_kind = function
  | Read -> "read"
  | Update_name _ | Update_value _ -> "update"
  | Insert _ -> "insert"
  | Delete _ -> "delete"

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* A records-shape document as XML text; row ids run 1..rows. *)
let records_text rs =
  let b = Buffer.create (Array.length rs * 96) in
  Buffer.add_string b "<table>";
  Array.iter
    (fun r ->
      Printf.bprintf b
        "<row><id>%d</id><name>%s</name><value>%d</value><category>%s</category></row>" r.id
        r.name r.value r.category)
    rs;
  Buffer.add_string b "</table>";
  Buffer.contents b

(* [count] sizes evenly spaced over [lo, hi], in a seeded order: which
   document gets which size depends on the seed, the total does not. *)
let spread st ~lo ~hi count =
  let a = Array.init count (fun i -> lo + (i * (hi - lo) / max 1 (count - 1))) in
  for i = count - 1 downto 1 do
    let j = int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* XPath queries over a records document of [rows] rows: a value
   predicate (set-at-a-time), a positional predicate, and sibling-axis
   steps, which take the per-context plans. *)
let doc_query st ~rows =
  let id () = 1 + int st rows in
  match int st 4 with
  | 0 -> ("value", Printf.sprintf "//row[id='%d']/name" (id ()))
  | 1 -> ("position", Printf.sprintf "/table/row[%d]/value" (id ()))
  | 2 -> ("following", Printf.sprintf "//row[id='%d']/following-sibling::row[1]/name" (id ()))
  | _ -> ("preceding", Printf.sprintf "//row[id='%d']/preceding-sibling::row[2]/category" (id ()))

(* docs: reads are transforms or queries of one stored document; writes
   ingest a new document of the given row count. *)
type doc_op =
  | Transform of { doc : int; style : int }
  | Query of { doc : int; xpath : string; shape : string }
  | Ingest of string  (** document text *)

(* per-mille weights: transform, query, ingest *)
let doc_weights = [| 665; 285; 50 |]

let doc_ops st ~doc_rows:(rows : int array) ~styles ~ingest_lo ~ingest_hi count =
  let ndocs = Array.length rows in
  (* ingest sizes cycle through every size in [ingest_lo, ingest_hi] *)
  let sizes = spread st ~lo:ingest_lo ~hi:ingest_hi (ingest_hi - ingest_lo + 1) in
  let ingests = ref 0 in
  Array.init count (fun _ ->
      match pick st doc_weights with
      | 0 -> Transform { doc = int st ndocs; style = int st styles }
      | 1 ->
          let doc = int st ndocs in
          let shape, xpath = doc_query st ~rows:rows.(doc) in
          Query { doc; xpath; shape }
      | _ ->
          let n = sizes.(!ingests mod Array.length sizes) in
          incr ingests;
          Ingest (records_text (records st n)))

let doc_kind = function Transform _ -> "transform" | Query _ -> "query" | Ingest _ -> "ingest"
