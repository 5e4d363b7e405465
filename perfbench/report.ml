(* What a workload run hands back to the printer. *)

type t = {
  attempted : int;
  failed : int;  (** failed answer checks and error/partial/shed responses *)
  e2e : (string * float) list;  (** end-to-end values, by metric name *)
  layers : (string * float) list;  (** per-layer values, by metric name *)
  samples : (string * int) list;  (** sample count behind each timing *)
  notes : string list;  (** report lines printed before the result *)
}

(* The p50 of each named timing; too few samples raise the named
   [Measure.Percentile_refused], which fails the run as it does for an
   end-to-end percentile. *)
let p50s timings =
  List.map (fun (name, samples) -> (name, Measure.percentile ~what:name samples 50.)) timings
