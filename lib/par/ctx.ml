(* The per-job isolation capsule.

   [Smapp_obs] keeps its mutable state (metric values, the trace ring and
   its clock) in domain-local scopes; an engine created inside a job
   installs its virtual clock into the current trace scope. Running each
   sweep job inside a fresh capsule therefore gives it a private metrics
   store and trace ring, so (a) jobs on different domains never write to
   shared cells, and (b) a job observes identical obs state whether the
   sweep ran sequentially or across domains. *)

type t = {
  metrics : Smapp_obs.Metrics.Scope.t;
  trace : Smapp_obs.Trace.Scope.t;
  prof : Smapp_obs.Prof.Scope.t;
}

let create () =
  {
    metrics = Smapp_obs.Metrics.Scope.create ();
    trace = Smapp_obs.Trace.Scope.create ();
    prof = Smapp_obs.Prof.Scope.create ();
  }

let run t f =
  Smapp_obs.Metrics.Scope.with_scope t.metrics (fun () ->
      Smapp_obs.Trace.Scope.with_scope t.trace (fun () ->
          Smapp_obs.Prof.Scope.with_scope t.prof f))
