(* Spans recorded by the benchmark around its calls into each layer.

   A span is (id, parent, layer, op, request index, start, end). Spans
   live in memory, one buffer per replay pass, and are written out as
   JSON lines when the run ends. Ids are [prefix * 10^9 + k], so buffers
   never collide; [parent] is 0 for a root. *)

type t = {
  id : int;
  parent : int;
  layer : string;
  op : string;
  req : int;
  t0 : float; (* seconds, Clock.now *)
  t1 : float;
}

type buf = { prefix : int; mutable next : int; mutable spans : t list }

let buf ~prefix = { prefix; next = 0; spans = [] }

let record b ?(parent = 0) ~layer ~op ~req t0 t1 =
  b.next <- b.next + 1;
  let id = (b.prefix * 1_000_000_000) + b.next in
  b.spans <- { id; parent; layer; op; req; t0; t1 } :: b.spans;
  id

(* Writes every span of [bufs] to [path], times in microseconds from
   [origin]. *)
let write path ~origin bufs =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun b ->
          List.iter
            (fun s ->
              Printf.fprintf oc
                "{\"id\":%d,\"parent\":%d,\"layer\":%S,\"op\":%S,\
                 \"req\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
                s.id s.parent s.layer s.op s.req
                ((s.t0 -. origin) *. 1e6)
                ((s.t1 -. origin) *. 1e6))
            (List.rev b.spans))
        bufs)
