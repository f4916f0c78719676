package repro.dom

/** Navigation view over a [[PageDoc]]: rebuilds parent/child structure from
  * the flattened rows so per-page algorithms (Algorithm 2's ancestor search,
  * the Vertex structural features) can walk the tree in O(1) per hop.
  */
final class PageTree(val doc: PageDoc) {
  private val byId: Array[NodeRow] = {
    val arr = new Array[NodeRow](doc.nodes.length)
    doc.nodes.foreach(n => arr(n.id) = n)
    arr
  }
  val childrenOf: Array[Vector[Int]] = {
    val cs = Array.fill(doc.nodes.length)(Vector.newBuilder[Int])
    doc.nodes.foreach(n => if (n.parent >= 0) cs(n.parent) += n.id)
    cs.map(_.result())
  }
  private val idByXpath: Map[String, Int] = doc.nodes.map(n => n.xpath -> n.id).toMap

  def node(id: Int): NodeRow = byId(id)
  def nodeAt(xpath: String): Option[NodeRow] = idByXpath.get(xpath).map(byId)
  def contains(xpath: String): Boolean = idByXpath.contains(xpath)

  /** Ancestor ids from parent up to the root, nearest first. */
  def ancestors(id: Int): List[Int] = {
    var cur = byId(id).parent
    val b = List.newBuilder[Int]
    while (cur >= 0) { b += cur; cur = byId(cur).parent }
    b.result()
  }

  /** All node ids in the subtree rooted at `id` (inclusive), document order. */
  def subtree(id: Int): Vector[Int] = {
    val b = Vector.newBuilder[Int]
    def walk(i: Int): Unit = { b += i; childrenOf(i).foreach(walk) }
    walk(id)
    b.result()
  }

  /** Text-leaf ids in the subtree rooted at `id`. */
  def subtreeTexts(id: Int): Vector[Int] = subtree(id).filter(byId(_).text.nonEmpty)

  /** Is `anc` an ancestor of (or equal to) `id`? */
  def contains(anc: Int, id: Int): Boolean = {
    var cur = id
    while (cur >= 0) { if (cur == anc) return true; cur = byId(cur).parent }
    false
  }
}
