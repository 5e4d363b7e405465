let require_const_bound (inst : Instance.t) =
  match inst.Instance.size_bound with
  | Size_bound.Const b -> b
  | Size_bound.Poly _ ->
      invalid_arg "Special: instance does not have a constant package-size bound"

let topk inst ~k =
  ignore (require_const_bound inst);
  Frp.enumerate inst ~k

let is_topk inst packages =
  ignore (require_const_bound inst);
  Rpp.is_topk inst packages

let max_bound inst ~k =
  ignore (require_const_bound inst);
  Mbp.max_bound inst ~k

let is_max_bound inst ~k ~bound =
  ignore (require_const_bound inst);
  Mbp.is_max_bound inst ~k ~bound

let count inst ~bound =
  ignore (require_const_bound inst);
  Cpp.count inst ~bound
