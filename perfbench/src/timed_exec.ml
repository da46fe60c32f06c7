(* A timing [Exec.S]: every call into the execution strategy is a "core"
   span and every application callback it runs (deserialization, mapped
   and bound functions, deferred computations) an "orm" span.  It wraps the
   strategy without changing what it does, so thunk counts, round trips and
   virtual time are those of the wrapped strategy. *)

module Make (X : Sloth_core.Exec.S) : Sloth_core.Exec.S with type 'a v = 'a X.v =
struct
  let name = X.name
  let immediate = X.immediate

  type 'a v = 'a X.v

  let core f = Trace.span Trace.core f
  let app f x = Trace.span Trace.orm (fun () -> f x)
  let pure v = core (fun () -> X.pure v)
  let map f v = core (fun () -> X.map (app f) v)
  let map2 f a b = core (fun () -> X.map2 (fun x y -> app (f x) y) a b)
  let all vs = core (fun () -> X.all vs)
  let bind f v = core (fun () -> X.bind (app f) v)
  let get v = core (fun () -> X.get v)
  let query stmt f = core (fun () -> X.query stmt (app f))
  let command stmt = core (fun () -> X.command stmt)
  let to_thunk v = core (fun () -> X.to_thunk v)
  let defer f = core (fun () -> X.defer (app f))
end
