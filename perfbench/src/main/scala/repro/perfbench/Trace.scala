package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

/** Spans and counters recorded around calls into the pipeline's layers.
  *
  * A span has a name, start and end (ns), its parent span and the operation
  * it belongs to.  Each operation runs on one `Par` thread, so a
  * thread-local stack gives the parent.  Spans stay in memory until the run
  * ends; self time is a span's duration minus the time its direct children
  * cover (children of one operation never overlap).
  */
trait Tracer {
  def span[T](name: String)(body: => T): T
  def count(name: String, n: Double): Unit
  /** Run `body` as operation `opId`: its spans carry that id. */
  def op[T](opId: String)(body: => T): T
}

object Tracer {

  /** Tracing off: every call runs its body and records nothing. */
  object Off extends Tracer {
    def span[T](name: String)(body: => T): T    = body
    def count(name: String, n: Double): Unit     = ()
    def op[T](opId: String)(body: => T): T       = body
  }

  case class Span(id: Long, parent: Long, opId: String, name: String, startNs: Long, endNs: Long) {
    def durNs: Long = endNs - startNs
  }

  /** In-memory recorder for one traced round. */
  final class Recorder extends Tracer {
    private val ids      = new AtomicLong(0)
    private val spansQ   = new ConcurrentLinkedQueue[Span]()
    private val countsQ  = new ConcurrentLinkedQueue[(String, Double)]()
    private val stack    = ThreadLocal.withInitial[List[(Long, String)]](() => Nil)

    def op[T](opId: String)(body: => T): T = {
      val saved = stack.get
      stack.set(List((0L, opId)))
      try span("op")(body)
      finally stack.set(saved)
    }

    def span[T](name: String)(body: => T): T = {
      val (parent, opId) = stack.get.headOption.getOrElse((0L, ""))
      val id = ids.incrementAndGet()
      stack.set((id, opId) :: stack.get)
      val t0 = System.nanoTime()
      try body
      finally {
        spansQ.add(Span(id, parent, opId, name, t0, System.nanoTime()))
        stack.set(stack.get.tail)
      }
    }

    def count(name: String, n: Double): Unit = countsQ.add(name -> n)

    def spans: Vector[Span] = spansQ.asScala.toVector

    def counts: Map[String, Double] =
      countsQ.asScala.toVector.groupMapReduce(_._1)(_._2)(_ + _)

    /** Self time in seconds, summed per span name. */
    def selfSeconds: Map[String, Double] = {
      val all     = spans
      val childNs = all.groupMapReduce(_.parent)(_.durNs)(_ + _)
      all.groupMapReduce(_.name)(s => (s.durNs - childNs.getOrElse(s.id, 0L)) / 1e9)(_ + _)
    }
  }
}
