// The benchmark is a module of its own so that it builds from the files
// under benchmark/ alone plus the repository it measures: the replace
// line points at the enclosing lightpath module, whose internal packages
// it may import because its module path lies beneath lightpath's.
module lightpath/benchmark

go 1.22

require lightpath v0.0.0

replace lightpath => ../
