package server

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"redisgraph/internal/core"
	"redisgraph/internal/cypher"
	"redisgraph/internal/pool"
	"redisgraph/internal/resp"
	"redisgraph/internal/value"
)

// resolvedOpThreads maps the live MAX_QUERY_THREADS setting to the thread
// budget queries actually run with: 0 means "auto", resolving to
// GOMAXPROCS at query time so a later GOMAXPROCS change is picked up.
func (s *Server) resolvedOpThreads() int {
	if n := int(s.opThreads.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// queryConfig assembles the per-query engine configuration from the
// server's options and live GRAPH.CONFIG state.
func (s *Server) queryConfig() core.Config {
	return core.Config{
		OpThreads:       s.resolvedOpThreads(),
		TraverseBatch:   int(s.traverseBatch.Load()),
		Timeout:         s.opts.QueryTimeout,
		NoCostPlanner:   !s.costPlanner.Load(),
		NoJoinPlanner:   !s.joinPlanner.Load(),
		TraverseKernel:  s.traverseKernel.Load().(string),
		PropertyStore:   s.propertyStore.Load().(string),
		PlanCache:       s.planCache,
		NoFairScheduler: !s.fairScheduler.Load(),
	}
}

// admitQuery takes one admission-gate slot for an executing query command,
// queueing FIFO up to the live ADMISSION_TIMEOUT. On deadline it returns a
// -BUSY error reply (release == nil) so saturated clients fail fast and
// back off instead of piling onto the pool.
func (s *Server) admitQuery() (wait time.Duration, release func(), busy resp.ErrorReply) {
	wait, err := s.gate.Acquire(s.admissionTimeout())
	if err != nil {
		return 0, nil, resp.ErrorReply(err.Error())
	}
	return wait, s.gate.Release, ""
}

// maxTraverseBatch caps GRAPH.CONFIG SET TRAVERSE_BATCH: beyond this the
// frontier matrices stop fitting comfortably in cache and the win flattens.
const maxTraverseBatch = 1 << 16

// configParams lists every GRAPH.CONFIG parameter, in the order GET *
// reports them.
var configParams = []string{"THREAD_COUNT", "TIMEOUT", "MAX_QUERY_THREADS", "TRAVERSE_BATCH", "COST_PLANNER", "JOIN_PLANNER", "TRAVERSE_KERNEL", "PROPERTY_STORE", "PLAN_CACHE_SIZE", "PLAN_CACHE_MAX_BYTES", "MAX_CONCURRENT_QUERIES", "ADMISSION_TIMEOUT", "GLOBAL_THREAD_BUDGET", "FAIR_SCHEDULER"}

// configValue reads one live configuration parameter (an int64, or a string
// for the enum-valued TRAVERSE_KERNEL).
func (s *Server) configValue(name string) any {
	switch name {
	case "THREAD_COUNT":
		return int64(cap(s.sem))
	case "TIMEOUT":
		return s.opts.QueryTimeout.Milliseconds()
	case "MAX_QUERY_THREADS":
		// GET reports the resolved budget: with auto (SET 0) the stored
		// zero would hide what queries actually run with.
		return int64(s.resolvedOpThreads())
	case "TRAVERSE_BATCH":
		return int64(s.traverseBatch.Load())
	case "COST_PLANNER":
		if s.costPlanner.Load() {
			return int64(1)
		}
		return int64(0)
	case "JOIN_PLANNER":
		if s.joinPlanner.Load() {
			return int64(1)
		}
		return int64(0)
	case "TRAVERSE_KERNEL":
		return s.traverseKernel.Load().(string)
	case "PROPERTY_STORE":
		return s.propertyStore.Load().(string)
	case "PLAN_CACHE_SIZE":
		return int64(s.planCache.Capacity())
	case "PLAN_CACHE_MAX_BYTES":
		return s.planCache.MaxBytes()
	case "MAX_CONCURRENT_QUERIES":
		return int64(s.gate.Limit())
	case "ADMISSION_TIMEOUT":
		return s.admissionTimeoutMs.Load()
	case "GLOBAL_THREAD_BUDGET":
		// GET reports the resolved budget (SET 0 = auto), like
		// MAX_QUERY_THREADS.
		return int64(pool.Budget())
	case "FAIR_SCHEDULER":
		if s.fairScheduler.Load() {
			return int64(1)
		}
		return int64(0)
	}
	return int64(0)
}

// parseBoolParam accepts Redis-style boolean config values.
func parseBoolParam(v string) (bool, error) {
	switch strings.ToLower(v) {
	case "1", "yes", "true", "on":
		return true, nil
	case "0", "no", "false", "off":
		return false, nil
	}
	return false, fmt.Errorf("invalid boolean %q", v)
}

// graphCommand executes one GRAPH.* module command on the calling
// connection goroutine, which holds a THREAD_COUNT slot.
func (s *Server) graphCommand(cmd string, args []string) (any, error) {
	switch cmd {
	case "GRAPH.QUERY", "GRAPH.RO_QUERY":
		if len(args) < 2 {
			return nil, fmt.Errorf("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd))
		}
		g := s.Graph(args[0])
		params, query, perr := cypher.ParseParams(args[1])
		if perr != nil {
			return nil, fmt.Errorf("ERR %v", perr)
		}
		_, release, busy := s.admitQuery()
		if release == nil {
			return busy, nil
		}
		defer release()
		cfg := s.queryConfig()
		var rs *core.ResultSet
		var err error
		if cmd == "GRAPH.RO_QUERY" {
			rs, err = core.ROQuery(g, query, params, cfg)
		} else {
			rs, err = core.Query(g, query, params, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("ERR %v", err)
		}
		return encodeResultSet(rs), nil

	case "GRAPH.EXPLAIN":
		if len(args) < 2 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'graph.explain' command")
		}
		g := s.Graph(args[0])
		_, query, perr := cypher.ParseParams(args[1])
		if perr != nil {
			return nil, fmt.Errorf("ERR %v", perr)
		}
		lines, err := core.Explain(g, query, s.queryConfig())
		if err != nil {
			return nil, fmt.Errorf("ERR %v", err)
		}
		return toAnySlice(lines), nil

	case "GRAPH.PROFILE":
		if len(args) < 2 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'graph.profile' command")
		}
		g := s.Graph(args[0])
		params, query, perr := cypher.ParseParams(args[1])
		if perr != nil {
			return nil, fmt.Errorf("ERR %v", perr)
		}
		wait, release, busy := s.admitQuery()
		if release == nil {
			return busy, nil
		}
		defer release()
		lines, err := core.Profile(g, query, params, s.queryConfig())
		if err != nil {
			return nil, fmt.Errorf("ERR %v", err)
		}
		gs := s.gate.Snapshot()
		admission := fmt.Sprintf("admission: wait: %.3f ms | queued: %d | admitted: %d | rejected: %d | limit: %d",
			float64(wait.Nanoseconds())/1e6, gs.QueuedNow, gs.Admitted, gs.Rejected, gs.Limit)
		return toAnySlice(append([]string{admission}, lines...)), nil

	case "GRAPH.DELETE":
		if len(args) != 1 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'graph.delete' command")
		}
		if !s.deleteGraph(args[0]) {
			return nil, fmt.Errorf("ERR graph %q does not exist", args[0])
		}
		return resp.SimpleString("OK"), nil

	case "GRAPH.LIST":
		return toAnySlice(s.graphNames()), nil

	case "GRAPH.CONFIG":
		if len(args) >= 2 && strings.ToUpper(args[0]) == "GET" {
			if args[1] == "*" {
				// Redis semantics: GET * returns every parameter as a
				// name/value pair.
				pairs := make([]any, 0, len(configParams))
				for _, p := range configParams {
					pairs = append(pairs, []any{p, s.configValue(p)})
				}
				return pairs, nil
			}
			name := strings.ToUpper(args[1])
			for _, p := range configParams {
				if p == name {
					return []any{p, s.configValue(p)}, nil
				}
			}
			return nil, fmt.Errorf("ERR unknown configuration parameter %q", args[1])
		}
		if len(args) >= 3 && strings.ToUpper(args[0]) == "SET" {
			switch strings.ToUpper(args[1]) {
			case "MAX_QUERY_THREADS":
				n, err := strconv.Atoi(args[2])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("ERR MAX_QUERY_THREADS must be a non-negative integer (0 = auto: match GOMAXPROCS)")
				}
				s.opThreads.Store(int32(n))
				return resp.SimpleString("OK"), nil
			case "TRAVERSE_BATCH":
				n, err := strconv.Atoi(args[2])
				if err != nil || n < 1 || n > maxTraverseBatch {
					return nil, fmt.Errorf("ERR TRAVERSE_BATCH must be an integer between 1 and %d", maxTraverseBatch)
				}
				s.traverseBatch.Store(int32(n))
				return resp.SimpleString("OK"), nil
			case "COST_PLANNER":
				on, err := parseBoolParam(args[2])
				if err != nil {
					return nil, fmt.Errorf("ERR COST_PLANNER must be 0|1|yes|no")
				}
				s.costPlanner.Store(on)
				return resp.SimpleString("OK"), nil
			case "JOIN_PLANNER":
				on, err := parseBoolParam(args[2])
				if err != nil {
					return nil, fmt.Errorf("ERR JOIN_PLANNER must be 0|1|yes|no")
				}
				s.joinPlanner.Store(on)
				return resp.SimpleString("OK"), nil
			case "TRAVERSE_KERNEL":
				kernel := strings.ToLower(args[2])
				switch kernel {
				case "auto", "push", "pull":
					s.traverseKernel.Store(kernel)
					return resp.SimpleString("OK"), nil
				}
				return nil, fmt.Errorf("ERR TRAVERSE_KERNEL must be auto|push|pull")
			case "PROPERTY_STORE":
				store := strings.ToLower(args[2])
				switch store {
				case "map", "columnar":
					s.propertyStore.Store(store)
					return resp.SimpleString("OK"), nil
				}
				return nil, fmt.Errorf("ERR PROPERTY_STORE must be map|columnar")
			case "PLAN_CACHE_SIZE":
				n, err := strconv.Atoi(args[2])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("ERR PLAN_CACHE_SIZE must be a non-negative integer (0 = caching off)")
				}
				s.planCache.SetCapacity(n)
				return resp.SimpleString("OK"), nil
			case "PLAN_CACHE_MAX_BYTES":
				n, err := strconv.ParseInt(args[2], 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("ERR PLAN_CACHE_MAX_BYTES must be a non-negative integer (0 = no byte budget)")
				}
				s.planCache.SetMaxBytes(n)
				return resp.SimpleString("OK"), nil
			case "MAX_CONCURRENT_QUERIES":
				n, err := strconv.Atoi(args[2])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("ERR MAX_CONCURRENT_QUERIES must be a non-negative integer (0 = unbounded)")
				}
				s.gate.SetLimit(n)
				return resp.SimpleString("OK"), nil
			case "ADMISSION_TIMEOUT":
				n, err := strconv.ParseInt(args[2], 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("ERR ADMISSION_TIMEOUT must be a non-negative integer of milliseconds (0 = fail fast when saturated)")
				}
				s.admissionTimeoutMs.Store(n)
				return resp.SimpleString("OK"), nil
			case "GLOBAL_THREAD_BUDGET":
				n, err := strconv.Atoi(args[2])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("ERR GLOBAL_THREAD_BUDGET must be a non-negative integer (0 = auto: match GOMAXPROCS)")
				}
				pool.SetBudget(n)
				return resp.SimpleString("OK"), nil
			case "FAIR_SCHEDULER":
				on, err := parseBoolParam(args[2])
				if err != nil {
					return nil, fmt.Errorf("ERR FAIR_SCHEDULER must be 0|1|yes|no")
				}
				s.fairScheduler.Store(on)
				return resp.SimpleString("OK"), nil
			}
			return nil, fmt.Errorf("ERR unknown configuration parameter %q", args[1])
		}
		return nil, fmt.Errorf("ERR GRAPH.CONFIG supports GET *|%s and SET MAX_QUERY_THREADS (0 = auto: match GOMAXPROCS)|TRAVERSE_BATCH|COST_PLANNER|JOIN_PLANNER|TRAVERSE_KERNEL|PROPERTY_STORE|PLAN_CACHE_SIZE|PLAN_CACHE_MAX_BYTES|MAX_CONCURRENT_QUERIES|ADMISSION_TIMEOUT|GLOBAL_THREAD_BUDGET|FAIR_SCHEDULER",
			strings.Join(configParams, "|"))
	}
	return nil, fmt.Errorf("ERR unknown command '%s'", strings.ToLower(cmd))
}

// encodeResultSet renders a ResultSet in RedisGraph's three-section reply
// shape: [columns], [rows...], [statistics...].
func encodeResultSet(rs *core.ResultSet) []any {
	header := make([]any, len(rs.Columns))
	for i, c := range rs.Columns {
		header[i] = c
	}
	rows := make([]any, len(rs.Rows))
	for i, row := range rs.Rows {
		cells := make([]any, len(row))
		for j, v := range row {
			cells[j] = encodeValue(v)
		}
		rows[i] = cells
	}
	return []any{header, rows, toAnySlice(rs.Stats.Lines())}
}

func encodeValue(v value.Value) any {
	switch v.Kind {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.Int()
	case value.KindBool:
		if v.Bool() {
			return int64(1)
		}
		return int64(0)
	default:
		return v.String()
	}
}

func toAnySlice(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
