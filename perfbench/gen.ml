(* Input generation, owned by the benchmark so that its inputs stay fixed
   when the program's own generators change.  Every input of a run comes
   from the seed, before timing starts.  Arrivals follow the paper's
   §5.2.1 process: a Poisson number of flows per slot, ports drawn
   uniformly, from the stdlib PRNG. *)

open Flowsched_switch
module A1 = Bigarray.Array1

(* Knuth's product method, in chunks of mean <= 20 so that exp (-mean)
   never underflows (sweep cells draw with means up to 600). *)
let poisson st mean =
  let rec chunk acc left =
    if left <= 0. then acc
    else begin
      let l = Float.min left 20. in
      let limit = exp (-.l) in
      let rec draw k p =
        let p = p *. Random.State.float st 1.0 in
        if p <= limit then k else draw (k + 1) p
      in
      chunk (acc + draw 0 1.0) (left -. l)
    end
  in
  chunk 0 mean

(* An arrival trace for the serve loop, packed off-heap so that it does not
   count toward the program's heap: the flows released at slot [s] are
   entries [offsets.{s}] to [offsets.{s + 1} - 1] of [ports], each
   [src lsl 8 lor dst], all of unit demand. *)
type trace = {
  slots : int;
  flows : int;
  offsets : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  ports : (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) A1.t;
}

(* [hot] is the share of flows sent to output 0 (an incast); the others
   draw both ports uniformly.  Slot 0 releases [burst] flows on top of its
   Poisson draw, so that a run starts at a deep backlog. *)
let trace ?(burst = 0) ~seed ~m ~rate ~slots ~hot () =
  if m > 256 then invalid_arg "Gen.trace: at most 256 ports";
  let st = Random.State.make [| seed; m; slots; burst |] in
  let offsets = A1.create Bigarray.int Bigarray.c_layout (slots + 1) in
  let ports =
    ref
      (A1.create Bigarray.int16_unsigned Bigarray.c_layout
         (1024 + burst + int_of_float (1.1 *. rate *. float_of_int slots)))
  in
  let n = ref 0 in
  for s = 0 to slots - 1 do
    offsets.{s} <- !n;
    for _i = 1 to poisson st rate + if s = 0 then burst else 0 do
      if !n = A1.dim !ports then begin
        let bigger = A1.create Bigarray.int16_unsigned Bigarray.c_layout (2 * !n) in
        A1.blit !ports (A1.sub bigger 0 !n);
        ports := bigger
      end;
      let src = Random.State.int st m in
      let dst =
        if hot > 0. && Random.State.float st 1.0 < hot then 0 else Random.State.int st m
      in
      !ports.{!n} <- (src lsl 8) lor dst;
      incr n
    done
  done;
  offsets.{slots} <- !n;
  { slots; flows = !n; offsets; ports = !ports }

(* A unit-capacity, unit-demand m x m instance with Poisson(rate) flows
   released in each of [rounds] rounds. *)
let instance ~seed ~m ~rate ~rounds =
  let st = Random.State.make [| seed; m; rounds; int_of_float (rate *. 1000.) |] in
  let flows = ref [] and n = ref 0 in
  for t = 0 to rounds - 1 do
    for _i = 1 to poisson st rate do
      let src = Random.State.int st m in
      let dst = Random.State.int st m in
      flows := Flow.make ~id:!n ~src ~dst ~release:t () :: !flows;
      incr n
    done
  done;
  Instance.create ~m ~m':m (Array.of_list (List.rev !flows))

(* Exactly [n] unit flows with ports and releases in [0, rounds) drawn
   uniformly: Poisson arrivals conditioned on their total, so that the size
   of an instance, and with it the cost of its LPs, does not vary with the
   seed. *)
let fixed_instance ~seed ~m ~n ~rounds =
  let st = Random.State.make [| seed; m; rounds; n |] in
  let drawn =
    Array.init n (fun _ ->
        let release = Random.State.int st rounds in
        let src = Random.State.int st m in
        (release, src, Random.State.int st m))
  in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) drawn;
  Instance.create ~m ~m':m
    (Array.mapi (fun id (release, src, dst) -> Flow.make ~id ~src ~dst ~release ()) drawn)

(* Fingerprints of generated inputs, so that repeated set-ups can be checked
   to give the same inputs without allocating on the heap. *)
let mix h x = (h * 1_000_003) lxor x

let trace_hash t =
  let h = ref (mix t.slots t.flows) in
  for s = 0 to t.slots do
    h := mix !h t.offsets.{s}
  done;
  for i = 0 to t.flows - 1 do
    h := mix !h t.ports.{i}
  done;
  !h

let instance_hash (inst : Instance.t) =
  Array.fold_left
    (fun h (f : Flow.t) -> mix (mix (mix h f.Flow.src) f.Flow.dst) f.Flow.release)
    inst.Instance.m inst.Instance.flows
