(* Clocks, honest percentiles, the span recorder and process memory —
   what every workload measures with. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Percentiles                                                          *)
(* ------------------------------------------------------------------ *)

exception Percentile_refused of string

let min_beyond = 10

(* Nearest-rank percentile of [samples].  A percentile is printed only
   when at least [min_beyond] samples lie beyond its rank; otherwise the
   named error [Percentile_refused] says which and why. *)
let percentile ~what samples p =
  let n = Array.length samples in
  let rank = max 0 (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1) in
  let beyond = n - 1 - rank in
  if n = 0 || beyond < min_beyond then
    raise
      (Percentile_refused
         (Printf.sprintf
            "percentile_refused: %s p%g has %d samples beyond it (n=%d, need \
             %d)"
            what p (max 0 beyond) n min_beyond));
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.(rank)

let mean samples =
  if samples = [||] then 0.
  else Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)

(* Median of a few repeated measurements (set-up times): no rank rule,
   every repetition is reported alongside. *)
let median samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0.
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                            *)
(* ------------------------------------------------------------------ *)

(* The shared 2-vCPU VMs this benchmark is run on change speed by up to
   2.5x for minutes at a time, and by about 25 % in plateaus of 5-20 s,
   with the same code and seed; process CPU time moves with wall time,
   so it is not steal time.  Every timing the benchmark reports is
   therefore scaled to a reference speed: a fixed reference kernel that
   calls no code of the program (a change to the program never changes
   its time) is timed every [calib_every] seconds alongside the
   workload, and a wall time [t] measured where the kernel took [k]
   seconds is reported as [t *. kernel_ref /. k] — the time it would
   take on a machine where the kernel takes [kernel_ref]. *)

let kernel_ref = 200e-6

(* A single cycle through 2^18 cells (2 MiB), walked in its own order
   from the same start each time: a dependent load per step from the
   core's own cache.  It lies outside the OCaml heap, so it leaves the
   collector's work alone; its pages stay resident, and
   [self_peak_rss_mb] takes them out again.  A walk through 16 MiB that
   went on where the last one stopped read from memory instead and
   followed the workloads worse: the scaled [ops_per_s] of six runs of
   one churn-teams seed ranged over 19 % of their mean with it, 7.5 %
   with this one, 30 % on the clock. *)
let chain_cells = 1 lsl 18
let chain_mb = float_of_int (chain_cells * 8) /. 1048576.

let chain =
  lazy
    (let p = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chain_cells in
     for i = 0 to chain_cells - 1 do
       p.{i} <- i
     done;
     let r = Random.State.make [| 1 |] in
     for i = chain_cells - 1 downto 1 do
       let j = Random.State.int r i in
       let t = p.{i} in
       p.{i} <- p.{j};
       p.{j} <- t
     done;
     p)

(* Pointer chasing, hashing and float arithmetic; it allocates nothing,
   so a minor collection the workload has made due never lands in it. *)
let table =
  lazy
    (let t = Hashtbl.create 512 in
     for k = 0 to 255 do
       Hashtbl.replace t k 0
     done;
     t)

let floats = lazy (Array.init 1_000 float_of_int)

let kernel () =
  let p = Lazy.force chain and t = Lazy.force table and f = Lazy.force floats in
  let i = ref 0 in
  for _ = 1 to 15_000 do
    i := Bigarray.Array1.unsafe_get p !i
  done;
  for k = 0 to 1_500 do
    Hashtbl.replace t ((k * 7919) land 255) (k + !i)
  done;
  let acc = ref 0. in
  for k = 0 to 999 do
    acc := (!acc *. 0.5) +. Array.unsafe_get f ((k * 31) mod 1_000)
  done;
  ignore (Sys.opaque_identity !acc)

let kernel_reps = 5
let calib_every = 0.1

(* (time, kernel seconds), newest first *)
let calib : (float * float) list ref = ref []
let calib_s = ref 0.
let last_calib = ref neg_infinity
let calib_lock = Mutex.create ()

(* Time the kernel now: the fastest of [kernel_reps] runs, so that a
   preemption or a collection of the other thread's making does not
   count as machine speed. *)
let calibrate () =
  let t0 = now () in
  let best = ref infinity in
  for _ = 1 to kernel_reps do
    let a = now () in
    kernel ();
    best := Float.min !best (now () -. a)
  done;
  let t1 = now () in
  calib := ((t0 +. t1) /. 2., !best) :: !calib;
  calib_s := !calib_s +. (t1 -. t0);
  last_calib := t1

(* Between two ops: time the kernel if [calib_every] has passed.  Safe
   from several threads; one that finds another timing it goes on. *)
let tick () =
  if now () -. !last_calib >= calib_every && Mutex.try_lock calib_lock then
    Fun.protect ~finally:(fun () -> Mutex.unlock calib_lock) (fun () ->
        if now () -. !last_calib >= calib_every then calibrate ())

(* Seconds spent timing the kernel since [since] (a value of [!calib_s]):
   taken out of the wall time of a timed phase. *)
let calib_since since = !calib_s -. since

(* The machine's speed over a run: at each sample's time, [kernel_ref]
   over the median kernel time of the samples within [smooth] seconds
   of it.  One sample is noisy (±20 %); the plateaus it tracks last
   5-20 s. *)
type calibration = { at : float array; scale : float array }

let smooth = 1.0

let calibration () =
  let samples = Array.of_list (List.rev !calib) in
  if samples = [||] then failwith "no calibration sample";
  let at = Array.map fst samples in
  let scale =
    Array.map
      (fun (t, _) ->
        let near =
          Array.of_list
            (List.filter_map
               (fun (u, k) -> if Float.abs (u -. t) <= smooth then Some k else None)
               (Array.to_list samples))
        in
        kernel_ref /. median near)
      samples
  in
  { at; scale }

(* The scale at time [t]: that of the sample nearest to it. *)
let scale_at c t =
  let n = Array.length c.at in
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if c.at.(mid) <= t then search mid hi else search lo mid
  in
  let i = search 0 n in
  let i = if i + 1 < n && Float.abs (c.at.(i + 1) -. t) < Float.abs (c.at.(i) -. t) then i + 1 else i in
  c.scale.(i)

(* The mean scale over [start, stop], from the samples taken in it (they
   are evenly spaced in time, so this weighs every moment alike). *)
let mean_scale c ~start ~stop =
  let sum = ref 0. and n = ref 0 in
  Array.iteri
    (fun i t ->
      if t >= start && t <= stop then begin
        sum := !sum +. c.scale.(i);
        incr n
      end)
    c.at;
  if !n = 0 then scale_at c ((start +. stop) /. 2.) else !sum /. float_of_int !n

(* Latencies or set-up times at reference speed, each scaled at its
   start time. *)
let scaled c ~starts times = Array.map2 (fun t x -> x *. scale_at c t) starts times

(* A timed phase: its span and the kernel's own time within it. *)
type phase = { start : float; stop : float; calib_in : float }

let phase_from start calib0 = { start; stop = now (); calib_in = calib_since calib0 }

(* Its wall time without the kernel's, on the clock and at reference
   speed (scaled by the mean over the phase). *)
let raw_wall p = p.stop -. p.start -. p.calib_in
let scaled_wall c p = raw_wall p *. mean_scale c ~start:p.start ~stop:p.stop

(* Report lines with the wall-clock figures behind the scaled ones. *)
let setup_note c ~starts setups =
  Printf.sprintf "setup_s repeats (wall s x scale): %s"
    (String.concat " "
       (Array.to_list
          (Array.map2 (fun t s -> Printf.sprintf "%.4fx%.3f" s (scale_at c t)) starts setups)))

let raw_note c p ~ops raw =
  Printf.sprintf "wall clock: %d ops in %.3f s (%.3f ops/s), op p50 %.3f ms; mean scale %.4f"
    ops (raw_wall p)
    (float_of_int ops /. raw_wall p)
    (median raw)
    (mean_scale c ~start:p.start ~stop:p.stop)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* A span is recorded at each public call the benchmark makes into a
   layer: name, start, end, the span that caused it, and the op it
   belongs to.  Spans stay in memory and are written out at exit; a
   layer's self time is its duration minus that of its child spans.
   Recording is off in untimed-layer runs, where [span] is a plain
   call. *)
type span = {
  id : int;
  parent : int;  (** -1 at the op's top level *)
  op : int;
  name : string;
  start : float;
  stop : float;
}

let tracing = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref 0
let lock = Mutex.create ()

let add_span s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

let fresh_id () =
  Mutex.protect lock (fun () ->
      let id = !next_id in
      incr next_id;
      id)

(* Nested spans for the single-threaded workloads. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        add_span { id; parent; op = !current_op; name; start; stop })
      f
  end

(* A top-level span recorded after the fact (the serve client's round
   trips, which run on two threads and have no children). *)
let record ~name ~op ~start ~stop =
  if !tracing then add_span { id = fresh_id (); parent = -1; op; name; start; stop }

let spans () = List.rev !recorded

(* Self time of every span, in milliseconds, grouped by span name. *)
let self_ms () =
  let all = spans () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    all;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        (s.stop -. s.start -. Option.value (Hashtbl.find_opt child s.id) ~default:0.)
        *. 1000.
      in
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:[] in
      Hashtbl.replace by_name s.name (self :: prev))
    all;
  fun name ->
    Array.of_list (List.rev (Option.value (Hashtbl.find_opt by_name name) ~default:[]))

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": \"%s\", \"start\": \
         %.6f, \"end\": %.6f}\n"
        s.id s.parent s.op s.name s.start s.stop)
    (spans ());
  close_out oc

(* ------------------------------------------------------------------ *)
(* Observe counters                                                     *)
(* ------------------------------------------------------------------ *)

let count snap name =
  match List.assoc_opt name snap with
  | Some (Observe.Count n) -> float_of_int n
  | Some (Observe.Span { seconds; _ }) -> seconds
  | None -> 0.

(* ------------------------------------------------------------------ *)
(* Memory                                                               *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> function
  | Some mb -> mb
  | None -> failwith ("no VmHWM in " ^ path)

(* This process's peak without the reference kernel's chain. *)
let self_peak_rss_mb () = peak_rss_mb "self" -. if Lazy.is_val chain then chain_mb else 0.
